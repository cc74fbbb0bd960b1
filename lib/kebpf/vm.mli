(** The extension VM: runs only verifier-approved programs over a
    read-only context buffer; every remaining hazard (out-of-bounds
    context access, division by zero) traps back to the kernel as an
    error instead of corrupting it. *)

type trap =
  | Ctx_out_of_bounds of { pc : int; offset : int; len : int }
  | Division_by_zero of { pc : int }
  | Fuel_exhausted  (** unreachable for verified programs *)

val trap_to_string : trap -> string

type loaded
(** A program that passed the verifier. *)

val load : Insn.program -> (loaded, Verifier.rejection) result

val exec : loaded -> ctx:string -> (int, trap) result
(** Run over a context buffer; returns r0.  At most the program length
    plus one instructions execute, a budget a verified program (jumps
    only go forward) never exhausts.  A trapping instruction counts as
    executed in {!stats}.

    Shifts move by exactly their amount: the verifier keeps [Lsh]/[Rsh]
    immediates in [\[0, 62\]], and a register shift by an amount outside
    that range (negative, or 63 and up) shifts every bit out and
    yields 0. *)

val stats : loaded -> int * int
(** (runs, total instructions executed). *)
