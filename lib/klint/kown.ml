(* kown — the interprocedural ownership-lifetime analysis (rules
   R8–R11), kracer's sibling for the memory-safety rung of the ladder.

   Per-function {!Ownset} walks carry only local facts; kown closes them
   over the {!Callgraph} with one bottom-up {!Fixpoint} on ownership
   summaries: which parameters a function consumes (frees or moves) and
   whether its result is a fresh owned object.  Annotations
   ([@consumes]/[@borrows]/[@returns_owned], [.mli]-merged) override the
   inference where present, so a contract can be stated once and checked
   against every caller.

   The second output is the runtime reconciliation: {!Ksim.Kmem} exports
   heap events (use-after-free, double-free, leak sites) through the
   runtime fact sink ({!Ksim.Ktrace.Heap_event}), and
   [unflagged_kmem_events] subtracts kown's static findings — any
   runtime event in a linted file that kown did not flag statically is
   an unsoundness (a lifetime path the syntactic analysis failed to see)
   and fails CI, exactly like kracer's lock-graph reconciliation. *)

type result = {
  findings : Finding.t list;
  funcs : int;  (** functions analyzed *)
  consuming : int;  (** functions with a non-empty consumes set *)
  returning_owned : int;  (** functions whose result is owned *)
  summaries : (string * Ownset.summary) list;
      (** the converged per-function summaries, keyed by qualified name —
          ktcb's R14 reads ownership facts straight from these *)
}

let empty =
  { findings = []; funcs = 0; consuming = 0; returning_owned = 0; summaries = [] }

(* The allocators' own implementations free and resurrect their internal
   state by design — analyzing the mechanism would only flag itself. *)
let excluded rel =
  List.mem rel [ "lib/ksim/kmem.ml"; "lib/ownership/checker.ml"; "lib/ownership/cap.ml" ]

(* [?cg]: the whole-tree graph over [files], which {!Engine.lint_tree}
   shares between the passes; without it the pass builds its own. *)
let analyze ?cg ~root files =
  let cg = Callgraph.for_pass ?cg ~root ~keep:(fun rel -> not (excluded rel)) files in
  (* Bottom-up summary fixpoint.  The inference is effectively monotone
     (consumes/returns_owned only turn on as callee summaries arrive). *)
  let fix =
    Fixpoint.solve ~pass:"kown" ~empty:Ownset.empty_summary ~equal:Ownset.summary_equal
      (fun ~lookup ~emit f -> Ownset.summarize ~emit cg lookup f)
      cg.Callgraph.funcs
  in
  let consuming, returning_owned =
    List.fold_left
      (fun (c, r) (_, (s : Ownset.summary)) ->
        ( (if Ownset.SS.is_empty s.Ownset.consumes then c else c + 1),
          if s.Ownset.returns_owned then r + 1 else r ))
      (0, 0) fix.Fixpoint.summaries
  in
  {
    findings = Finding.sort fix.Fixpoint.findings;
    funcs = List.length cg.Callgraph.funcs;
    consuming;
    returning_owned;
    summaries = fix.Fixpoint.summaries;
  }

(* Standalone entry (bench, tests): parse the tree itself. *)
let analyze_tree ~root =
  let files, _errors = Kparse.parse_files ~root (Loc.ml_files_under ~root "lib") in
  analyze ~root files

(* Runtime reconciliation --------------------------------------------------- *)

let rule_of_kind = function
  | "uaf" -> Some Finding.R8_use_after_free
  | "double_free" -> Some Finding.R9_double_free
  | "leak" -> Some Finding.R10_error_leak
  | _ -> None

(* Aggregate runtime events by (kind, heap) and subtract the static
   findings: an event survives — [(event, file, rule)] — when its file
   has no static finding of the matching rule at all.  Site strings are
   allocation sites, not source locations, so the granularity is
   (rule, file): the static analysis must have *something* to say about
   that failure mode in that file, baselined or not. *)
let unflagged_kmem_events ~files ~findings events =
  let agg : (_, Ksim.Ktrace.heap_event) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ev : Ksim.Ktrace.heap_event) ->
      let key = (ev.kind, ev.heap) in
      match Hashtbl.find_opt agg key with
      | Some prior -> Hashtbl.replace agg key { prior with count = prior.count + ev.count }
      | None -> Hashtbl.replace agg key ev)
    events;
  Hashtbl.fold (fun _ ev acc -> ev :: acc) agg []
  |> List.sort (fun (a : Ksim.Ktrace.heap_event) b -> compare (a.kind, a.heap) (b.kind, b.heap))
  |> List.filter_map (fun (ev : Ksim.Ktrace.heap_event) ->
         match rule_of_kind ev.kind with
         | None -> None
         | Some rule -> (
             match Loc.file_of_module ~files ev.heap with
             | None -> None
             | Some file ->
                 if
                   List.exists
                     (fun (f : Finding.t) ->
                       f.Finding.rule = rule && String.equal f.Finding.file file)
                     findings
                 then None
                 else Some (ev, file, rule)))
