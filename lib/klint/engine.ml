(* The driver core: walk the tree, parse, run rules, attribute findings
   to subsystems, and reconcile against the Registry's level claims. *)

module Level = Safeos_core.Level
module Registry = Safeos_core.Registry

(* Per-file lint --------------------------------------------------------- *)

let binding_name vb =
  let open Parsetree in
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
  | _ -> ""

let rec lint_structure ~file ~prefix structure =
  List.concat_map (lint_item ~file ~prefix) structure

and lint_item ~file ~prefix item =
  let open Parsetree in
  match item.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.concat_map
        (fun vb ->
          let fname = prefix ^ binding_name vb in
          Checks.simple_rules ~file ~fname (`Vb vb)
          @ Checks.r2_check ~file ~fname vb.pvb_expr
          @ Checks.r3_check ~annot:(Annot.of_attributes vb.pvb_attributes) ~file ~fname
              vb.pvb_expr)
        vbs
  | Pstr_eval (e, _) ->
      Checks.simple_rules ~file ~fname:prefix (`Expr e)
      @ Checks.r2_check ~file ~fname:prefix e
      @ Checks.r3_check ~file ~fname:prefix e
  | Pstr_module mb -> lint_module ~file ~prefix mb.pmb_name.txt mb.pmb_expr
  | Pstr_recmodule mbs ->
      List.concat_map (fun mb -> lint_module ~file ~prefix mb.pmb_name.txt mb.pmb_expr) mbs
  | Pstr_include { pincl_mod; _ } -> lint_module ~file ~prefix None pincl_mod
  | _ -> []

and lint_module ~file ~prefix name mexpr =
  let open Parsetree in
  let prefix = match name with Some n -> prefix ^ n ^ "." | None -> prefix in
  match mexpr.pmod_desc with
  | Pmod_structure structure -> lint_structure ~file ~prefix structure
  | Pmod_functor (_, body) -> lint_module ~file ~prefix None body
  | Pmod_constraint (m, _) -> lint_module ~file ~prefix None m
  | _ -> []

type file_result = (Finding.t list, string) result

let lint_file ~root rel : file_result =
  match Kparse.parse (Filename.concat root rel) with
  | Error msg -> Error msg
  | Ok structure -> Ok (lint_structure ~file:rel ~prefix:"" structure)

(* Tree lint ------------------------------------------------------------- *)

type tree_result = {
  findings : Finding.t list; (* sorted by file/line/rule; includes kracer's *)
  parse_errors : (string * string) list;
      (* file, message: every .ml and .mli that failed to parse, sorted *)
  files : string list;
  effective_loc : int; (* total effective lines linted *)
  kracer : Kracer.result; (* the interprocedural pass: lock graph + R6 *)
  kown : Kown.result; (* the ownership pass: R8-R11 + summaries *)
  ktcb : Ktcb.result;
      (* the frame-confinement pass: R12-R14 + the TCB metric.  Kept out
         of [findings] — its ratchet is the tcb.baseline count file, not
         the line-anchored ladder baseline. *)
  kverify : Kverify.result;
      (* the "verified means checked" pass: statically visible krefine
         harness registrations.  R15 itself needs the live registry, so
         the driver synthesizes it via [Kverify.r15] and feeds the
         findings through the same reconciliation. *)
  kdur : Kdur.result;
      (* the barrier-discipline pass: R16-R18 + durability transfers.
         Kept out of [findings] like ktcb's — its ratchet is the
         dur.baseline count file, not the line-anchored ladder baseline
         (the journal's ?barriers:false ablation is a deliberate,
         statically reachable missing-flush path). *)
}

(* One whole-tree model: the files are parsed once, the call graph is
   built once (every [.mli] parsed once) and each pass restricts it by
   its own exclusion list, and each file's effective lines are counted
   once for both the TCB table and [effective_loc]. *)
let lint_tree ~root =
  let files = Loc.ml_files_under ~root "lib" in
  (* the per-file rules and the interprocedural passes walk the same trees *)
  let parsed, ml_errors = Kparse.parse_files ~root files in
  let findings =
    List.concat_map (fun (rel, structure) -> lint_structure ~file:rel ~prefix:"" structure)
      parsed
  in
  let cg = Callgraph.build ~root parsed in
  let kracer = Kracer.analyze ~cg ~root parsed in
  let kown = Kown.analyze ~cg ~root parsed in
  let loc = Hashtbl.create 128 in
  List.iter (fun rel -> Hashtbl.replace loc rel (Loc.count_file (Filename.concat root rel))) files;
  let ktcb =
    Ktcb.analyze ~cg ~root ~loc_of:(Hashtbl.find loc) parsed ~summaries:kown.Kown.summaries
  in
  let kdur = Kdur.analyze ~cg ~root parsed in
  {
    findings = Finding.sort (kown.Kown.findings @ kracer.Kracer.findings @ findings);
    parse_errors =
      List.sort_uniq compare
        (ml_errors @ cg.Callgraph.mli_errors @ ktcb.Ktcb.parse_errors);
    files;
    effective_loc = Hashtbl.fold (fun _ n acc -> acc + n) loc 0;
    kracer;
    kown;
    ktcb;
    kverify = Kverify.scan parsed;
    kdur;
  }

(* Reconciliation -------------------------------------------------------- *)

type attributed = {
  finding : Finding.t;
  sub : string;
  level : Level.t; (* the level the subsystem claims *)
  forbidden : bool; (* does the claimed level rule out this bug class? *)
  baselined : bool;
}

type reconciliation = {
  attributed : attributed list;
  violations : attributed list; (* forbidden and not baselined: fatal *)
  stale_baseline : Baseline.entry list; (* ratchet progress *)
}

(* A finding's claimed level: the live registry wins for registered
   subsystems (so a level bump immediately tightens the linter), the
   static map covers the rest. *)
let claim_level registry (claim : Subsystem.claim) =
  match registry with
  | Some r when claim.Subsystem.registered -> (
      match Registry.find r claim.Subsystem.sub with
      | Some e -> e.Registry.level
      | None -> claim.Subsystem.level)
  | _ -> claim.Subsystem.level

let reconcile ?(claim_of = Subsystem.claim_of_path) ?registry ~baseline findings =
  let attributed =
    List.map
      (fun (f : Finding.t) ->
        let claim = claim_of f.Finding.file in
        let level = claim_level registry claim in
        {
          finding = f;
          sub = claim.Subsystem.sub;
          level;
          forbidden = Level.prevents level (Finding.bug_class f.Finding.rule);
          baselined = Baseline.mem baseline f;
        })
      findings
  in
  {
    attributed;
    violations = List.filter (fun a -> a.forbidden && not a.baselined) attributed;
    stale_baseline = Baseline.stale baseline findings;
  }
