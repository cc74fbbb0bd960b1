(* klint — a sparse-style static safety-ladder linter.

   The repo's incremental ratchet (Registry level claims) was enforced
   only at runtime: Dyn.Type_confusion, Ownership.Checker, Lockdep fire
   on the paths tests happen to execute.  klint closes the gap the way
   Linux's sparse does — by checking the *source tree* against each
   subsystem's claimed rung, per CWE bucket, on every CI run.  See
   DESIGN.md "Static analysis (klint)" for the rule-to-roadmap map. *)

module Finding = Finding
module Rules = Rules
module Checks = Checks
module Annot = Annot
module Callgraph = Callgraph
module Fixpoint = Fixpoint
module Lockset = Lockset
module Kracer = Kracer
module Ownset = Ownset
module Kown = Kown
module Durset = Durset
module Kdur = Kdur
module Frame = Frame
module Ktcb = Ktcb
module Kverify = Kverify
module Kparse = Kparse
module Loc = Loc
module Subsystem = Subsystem
module Baseline = Baseline
module Engine = Engine
module Report = Report

(* Effective-line counting shared with the Figure-1 audit. *)
let loc_of_dir = Loc.loc_of_dir

(* Per-subsystem implementation size, derived from the same source map
   the linter attributes findings with — pass as [Boot.registry ~loc_of]
   so the audit numbers cannot drift from the tree. *)
let registry_loc ~root name =
  match Subsystem.sources_of name with
  | None -> None
  | Some sources ->
      List.fold_left
        (fun acc src ->
          match (acc, Loc.loc_of_dir ~root src) with
          | Some total, Some n -> Some (total + n)
          | _, None | None, _ -> None)
        (Some 0) sources

(* Walk up from [start] (default: cwd) to the dune-project root. *)
let find_root ?start () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  up (match start with Some d -> d | None -> Sys.getcwd ())
