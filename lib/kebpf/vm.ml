(* The extension VM.

   Runs only verifier-approved programs ([load] couples the two), over a
   read-only context buffer.  Even then it is defensive: context loads are
   bounds-trapped, division by zero traps, and a fuel counter (which a
   verified program can never exhaust, since jumps only go forward) caps
   execution — traps return an error to the kernel instead of becoming
   kernel bugs, which is the whole point of the mechanism. *)

type trap =
  | Ctx_out_of_bounds of { pc : int; offset : int; len : int }
  | Division_by_zero of { pc : int }
  | Fuel_exhausted

let trap_to_string = function
  | Ctx_out_of_bounds { pc; offset; len } ->
      Printf.sprintf "ctx access at pc=%d: offset %d beyond length %d" pc offset len
  | Division_by_zero { pc } -> Printf.sprintf "division by zero at pc=%d" pc
  | Fuel_exhausted -> "fuel exhausted"

type loaded = {
  prog : Insn.program;
  regs : int array;  (* the register file, reset at the start of every run *)
  mutable runs : int;
  mutable insns_executed : int;
}

let load prog =
  match Verifier.check prog with
  | Ok () -> Ok { prog; regs = Array.make 8 0; runs = 0; insns_executed = 0 }
  | Error r -> Error r

let stats loaded = (loaded.runs, loaded.insns_executed)

(* A shift amount outside [0, 62] moves every bit out of the 63-bit
   register (OCaml leaves such shifts unspecified, so they never reach
   [lsl]/[lsr]).  The verifier keeps immediates inside the range. *)
let shift f a b = if b < 0 || b > 62 then 0 else f a b

(* Every operator; [arith] traps a zero divisor before calling it. *)
let alu op a b =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Mul -> a * b
  | Insn.Div -> a / b
  | Insn.And -> a land b
  | Insn.Or -> a lor b
  | Insn.Xor -> a lxor b
  | Insn.Lsh -> shift ( lsl ) a b
  | Insn.Rsh -> shift ( lsr ) a b

let cond c a b =
  match c with
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b
  | Insn.Lt -> a < b
  | Insn.Gt -> a > b
  | Insn.Le -> a <= b
  | Insn.Ge -> a >= b

(* The interpreter: closed, mutually tail-recursive functions over the
   loaded program's register file, so a run allocates nothing but its
   final [Ok]/[Error]. *)
let rec step loaded ctx pc fuel =
  let prog = loaded.prog and regs = loaded.regs in
  if fuel = 0 || pc >= Array.length prog then
    Error Fuel_exhausted (* running off the end cannot happen post-verification *)
  else begin
    loaded.insns_executed <- loaded.insns_executed + 1;
    match prog.(pc) with
    | Insn.Mov_imm (d, imm) ->
        regs.(Insn.reg_index d) <- imm;
        step loaded ctx (pc + 1) (fuel - 1)
    | Insn.Mov_reg (d, s) ->
        regs.(Insn.reg_index d) <- regs.(Insn.reg_index s);
        step loaded ctx (pc + 1) (fuel - 1)
    | Insn.Alu_imm (op, d, imm) -> arith loaded ctx pc fuel op d imm
    | Insn.Alu_reg (op, d, s) -> arith loaded ctx pc fuel op d regs.(Insn.reg_index s)
    | Insn.Ld_ctx (d, s, imm) ->
        let offset = regs.(Insn.reg_index s) + imm in
        let len = String.length ctx in
        if offset < 0 || offset >= len then Error (Ctx_out_of_bounds { pc; offset; len })
        else begin
          regs.(Insn.reg_index d) <- Char.code ctx.[offset];
          step loaded ctx (pc + 1) (fuel - 1)
        end
    | Insn.Jmp off -> step loaded ctx (pc + 1 + off) (fuel - 1)
    | Insn.Jcond (c, r, imm, off) ->
        if cond c regs.(Insn.reg_index r) imm then step loaded ctx (pc + 1 + off) (fuel - 1)
        else step loaded ctx (pc + 1) (fuel - 1)
    | Insn.Exit -> Ok regs.(Insn.reg_index Insn.R0)
  end

and arith loaded ctx pc fuel op d b =
  if op = Insn.Div && b = 0 then Error (Division_by_zero { pc })
  else begin
    let i = Insn.reg_index d in
    loaded.regs.(i) <- alu op loaded.regs.(i) b;
    step loaded ctx (pc + 1) (fuel - 1)
  end

let exec loaded ~ctx : (int, trap) result =
  Array.fill loaded.regs 0 (Array.length loaded.regs) 0;
  loaded.regs.(Insn.reg_index Insn.R1) <- String.length ctx;
  loaded.runs <- loaded.runs + 1;
  step loaded ctx 0 (Array.length loaded.prog + 1)
