(* The bottom-up summary fixpoint kown and kdur share: a demand-driven
   worklist over the {!Callgraph}.

   Every function is evaluated once in [cg.funcs] order.  An evaluation
   reads callee summaries through [lookup], and each read records the
   reader as a dependent of that callee; a function is evaluated again
   only when a summary it read has changed since.  So when the worklist
   drains, each function's last evaluation ran under the final
   summaries, and the findings it emitted are the report — no separate
   reporting pass.

   A name denotes its last definition in [funcs] order, the shadowing
   rule {!Callgraph.resolve} applies; an earlier definition of the same
   name is still evaluated for its findings, but its summary is not
   stored.

   The passes' summaries only grow as callee summaries arrive, and every
   summary lattice here is a handful of bits or a parameter set, so a
   function's summary changes a few times at most.  One that changes
   [max_changes] times is oscillating, and the solver raises
   {!Diverged} rather than report from summaries that have not
   converged. *)

exception Diverged of { pass : string; func : string; changes : int }

let max_changes = 64

type 's result = {
  summaries : (string * 's) list;
      (** every summary that ever left [empty], sorted by name *)
  findings : Finding.t list;  (** each function's last evaluation, in [funcs] order *)
}

let solve ~pass ~empty ~equal eval (funcs : Callgraph.func list) =
  let funcs = Array.of_list funcs in
  let n = Array.length funcs in
  let names = Array.map Callgraph.name funcs in
  let owner = Hashtbl.create n in
  Array.iteri (fun i name -> Hashtbl.replace owner name i) names;
  let summary = Array.make n None in
  let changes = Array.make n 0 in
  let findings = Array.make n [] in
  (* dependents.(g): the functions whose evaluation read g's summary;
     [edges] keeps each (g, reader) pair once *)
  let dependents = Array.make n [] in
  let edges = Hashtbl.create (4 * n) in
  let current = ref 0 in
  let lookup name =
    match Hashtbl.find_opt owner name with
    | None -> empty
    | Some g ->
        let edge = (g * n) + !current in
        if not (Hashtbl.mem edges edge) then begin
          Hashtbl.add edges edge ();
          dependents.(g) <- !current :: dependents.(g)
        end;
        Option.value ~default:empty summary.(g)
  in
  let queued = Array.make n true in
  let work = Queue.create () in
  for i = 0 to n - 1 do
    Queue.push i work
  done;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    queued.(i) <- false;
    current := i;
    let emitted = ref [] in
    let s = eval ~lookup ~emit:(fun x -> emitted := x :: !emitted) funcs.(i) in
    findings.(i) <- !emitted;
    if Hashtbl.find owner names.(i) = i
       && not (equal s (Option.value ~default:empty summary.(i)))
    then begin
      summary.(i) <- Some s;
      changes.(i) <- changes.(i) + 1;
      if changes.(i) >= max_changes then
        raise (Diverged { pass; func = names.(i); changes = changes.(i) });
      List.iter
        (fun j ->
          if not queued.(j) then begin
            queued.(j) <- true;
            Queue.push j work
          end)
        dependents.(i)
    end
  done;
  let summaries = ref [] in
  Array.iteri
    (fun i s -> match s with Some s -> summaries := (names.(i), s) :: !summaries | None -> ())
    summary;
  {
    summaries = List.sort (fun (a, _) (b, _) -> String.compare a b) !summaries;
    findings = List.concat (Array.to_list findings);
  }
