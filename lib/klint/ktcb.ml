(* ktcb — the frame-confinement pass (rules R12-R14) and the unsafe-TCB
   metric, the static half of the framekernel refactor.

   The frame declaration lives in {!Frame}; this pass prices the tree
   against it three ways:

   - R12 (unsafe-primitive-outside-frame): a direct use of [Dyn.*], raw
     [Kmem], [Bytes.unsafe_*], or bare [Klock.acquire]/[release] from a
     non-frame file — the CWE-1120 TCB-bloat site the Frame wrappers
     exist to replace.
   - R13 (frame-API-bypass): a call that resolves, over the callgraph,
     to a frame symbol not on the blessed surface, or to a non-frame
     helper that (transitively) launders one — the depth->=2 pattern a
     per-site grep cannot see.  Taint does not cross *into* a declared
     exhibit: using a specimen's interface is the registry's business,
     not laundering.
   - R14 (unsound-frame-export): a frame function whose kown summary
     says it returns a fresh owned object, reachable from a non-frame
     caller — a raw capability crossing the boundary unwrapped.

   The second output is the TCB metric: per-subsystem unsafe LOC (full
   file size inside the frame, distinct R12/R13 lines outside it) over
   total LOC, plus the frame-surface val count — the numbers the
   [tcb.baseline] count-ratchet and the report's [tcb] object carry.
   Like kown, the pass is reconciled against runtime ground truth:
   [unsound_kmem_events] fails CI when raw heap traffic originates from
   a module the metric classifies as frame-free. *)

open Parsetree

(* Findings ---------------------------------------------------------------- *)

let deep_iter_expr f e0 =
  let super = Ast_iterator.default_iterator in
  let it = { super with expr = (fun it e -> f e; super.expr it e) } in
  it.expr it e0

let deep_iter_structure f structure =
  let super = Ast_iterator.default_iterator in
  let it = { super with expr = (fun it e -> f e; super.expr it e) } in
  it.structure it structure

(* An expression that *is* an unsafe-primitive use: a value identifier
   ([Dyn.project]) or a constructor ([Dyn.Errptr.Ptr _]) whose path
   classifies.  Patterns and type expressions deliberately do not count
   — naming a frame type is free, reaching its operations is not. *)
let classify_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Frame.classify_path (Rules.flatten txt)
  | Pexp_construct ({ txt; _ }, _) -> (
      match Frame.classify_path (Rules.flatten txt) with
      | Some (Frame.Dyn_use | Frame.Kmem_use) as p -> p
      | _ -> None)
  | _ -> None

type row = {
  sub : string;
  loc : int;  (** effective lines across the subsystem's linted files *)
  unsafe_loc : int;
  direct : int;  (** R12 findings *)
  indirect : int;  (** R13 findings *)
  in_frame : bool;
  exhibit : bool;
}

type result = {
  findings : Finding.t list;  (** R12-R14, kept out of the ladder reconciliation *)
  rows : row list;  (** per-subsystem TCB table, sorted by name *)
  frame_files : int;
  frame_loc : int;
  surface_vals : int;  (** vals exported by {!Frame.surface_mli} *)
  total_loc : int;
  unsafe_loc : int;
  funcs : int;  (** functions the callgraph pass analyzed *)
  lock_creators : (string * string) list;
      (** lock class -> creating file, from literal [Klock.create ~name]
          sites — the attribution the lockdep reconciliation uses *)
  parse_errors : (string * string) list;
      (** the frame surface [.mli], if it failed to parse: [surface_vals]
          is then 0, and the lint must not pass *)
}

let empty =
  {
    findings = [];
    rows = [];
    frame_files = 0;
    frame_loc = 0;
    surface_vals = 0;
    total_loc = 0;
    unsafe_loc = 0;
    funcs = 0;
    lock_creators = [];
    parse_errors = [];
  }

(* The frame-surface metric: how many vals the blessed boundary exports
   (recursively, so [Frame.Priv.wrap] counts once). *)
let rec count_sig_vals signature =
  List.fold_left
    (fun acc (item : signature_item) ->
      match item.psig_desc with
      | Psig_value _ -> acc + 1
      | Psig_module { pmd_type = { pmty_desc = Pmty_signature s; _ }; _ } ->
          acc + count_sig_vals s
      | _ -> acc)
    0 signature

let surface_vals ~root =
  let path = Filename.concat root Frame.surface_mli in
  if not (Sys.file_exists path) then Ok 0
  else
    match Kparse.parse_interface path with
    | Ok signature -> Ok (count_sig_vals signature)
    | Error msg -> Error (Frame.surface_mli, msg)

(* Lock class -> creating file, from literal [Klock.create ~name] sites;
   locks named via computed strings cannot be attributed and are
   skipped. *)
let lock_class_creators parsed =
  let acc = ref [] in
  List.iter
    (fun (rel, structure) ->
      deep_iter_structure
        (fun e ->
          match e.pexp_desc with
          | Pexp_apply (head, args)
            when Rules.ident_matches ~penult:"Klock" ~last:"create" (Rules.strip head) ->
              List.iter
                (fun (label, (arg : expression)) ->
                  match (label, arg.pexp_desc) with
                  | Asttypes.Labelled "name", Pexp_constant (Pconst_string (s, _, _)) ->
                      acc := (Annot.lock_class s, rel) :: !acc
                  | _ -> ())
                args
          | _ -> ())
        structure)
    parsed;
  List.sort_uniq compare !acc

(* [?cg]: the whole-tree graph over [parsed]; [?loc_of]: each file's
   effective lines, already counted.  {!Engine.lint_tree} shares both;
   without them the pass builds and counts its own. *)
let analyze ?cg ~root ?(loc_of = fun rel -> Loc.count_file (Filename.concat root rel)) parsed
    ~summaries =
  let files = List.map fst parsed in
  let cg = match cg with Some cg -> cg | None -> Callgraph.build ~root parsed in
  let findings = ref [] in
  (* (file, line, col) already carrying a finding — R13 never re-flags a
     call site R12 already priced. *)
  let marked : (string * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let key_of_loc file (loc : Location.t) =
    let p = loc.Location.loc_start in
    (file, p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
  in
  (* R12: whole-structure walk, so toplevel and anonymous code count too. *)
  List.iter
    (fun (rel, structure) ->
      if not (Frame.in_frame rel) then
        deep_iter_structure
          (fun e ->
            match classify_expr e with
            | None -> ()
            | Some prim ->
                let k = key_of_loc rel e.pexp_loc in
                if not (Hashtbl.mem marked k) then begin
                  Hashtbl.replace marked k ();
                  findings :=
                    Finding.v ~rule:Finding.R12_unsafe_primitive ~file:rel ~loc:e.pexp_loc
                      (Fmt.str "direct use of %s outside the frame; go through Ksim.Frame"
                         (Frame.prim_to_string prim))
                    :: !findings
                end)
          structure)
    parsed;
  (* Callgraph facts for R13/R14. *)
  let fkey (f : Callgraph.func) = f.Callgraph.file ^ ":" ^ Callgraph.name f in
  let direct_use (f : Callgraph.func) =
    let found = ref false in
    deep_iter_expr (fun e -> if classify_expr e <> None then found := true) f.Callgraph.body;
    !found
  in
  (* Call sites: every identifier in a non-frame body that resolves to a
     known function, self-references excluded. *)
  let edges =
    List.concat_map
      (fun (f : Callgraph.func) ->
        if Frame.in_frame f.Callgraph.file then []
        else begin
          let acc = ref [] in
          deep_iter_expr
            (fun e ->
              match e.pexp_desc with
              | Pexp_ident { txt; _ } -> (
                  match Callgraph.resolve cg ~caller:f (Rules.flatten txt) with
                  | Some g when not (String.equal (fkey g) (fkey f)) ->
                      acc := (e.pexp_loc, g) :: !acc
                  | _ -> ())
              | _ -> ())
            f.Callgraph.body;
          List.rev_map (fun (loc, g) -> (f, loc, g)) !acc
        end)
      cg.Callgraph.funcs
  in
  (* Does taint flow across this edge?  Never from a non-exhibit caller
     into an exhibit — the specimen boundary is declared. *)
  let edge_carries (f : Callgraph.func) (g : Callgraph.func) =
    not
      ((not (Frame.is_exhibit f.Callgraph.file)) && Frame.is_exhibit g.Callgraph.file)
  in
  let tainted : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (f : Callgraph.func) ->
      if (not (Frame.in_frame f.Callgraph.file)) && direct_use f then
        Hashtbl.replace tainted (fkey f) ())
    cg.Callgraph.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((f : Callgraph.func), _, (g : Callgraph.func)) ->
        if (not (Hashtbl.mem tainted (fkey f))) && edge_carries f g then begin
          let taints =
            if Frame.in_frame g.Callgraph.file then not (Frame.blessed_symbol g)
            else Hashtbl.mem tainted (fkey g)
          in
          if taints then begin
            Hashtbl.replace tainted (fkey f) ();
            changed := true
          end
        end)
      edges
  done;
  (* R13 at the laundering call sites. *)
  List.iter
    (fun ((f : Callgraph.func), loc, (g : Callgraph.func)) ->
      let bypass =
        edge_carries f g
        &&
        if Frame.in_frame g.Callgraph.file then not (Frame.blessed_symbol g)
        else Hashtbl.mem tainted (fkey g)
      in
      if bypass then begin
        let k = key_of_loc f.Callgraph.file loc in
        if not (Hashtbl.mem marked k) then begin
          Hashtbl.replace marked k ();
          findings :=
            Finding.v ~rule:Finding.R13_frame_bypass ~file:f.Callgraph.file ~loc
              ~func:(Callgraph.name f)
              (Fmt.str "call to %s bypasses the blessed frame surface%s" (Callgraph.name g)
                 (if Frame.in_frame g.Callgraph.file then ""
                  else " (launders unsafe primitives)"))
            :: !findings
        end
      end)
    edges;
  (* R14: frame functions exporting owned raw capabilities to services. *)
  List.iter
    (fun (f : Callgraph.func) ->
      if Frame.in_frame f.Callgraph.file then begin
        let returns_owned =
          f.Callgraph.annot.Annot.returns_owned
          ||
          match List.assoc_opt (Callgraph.name f) summaries with
          | Some (s : Ownset.summary) -> s.Ownset.returns_owned
          | None -> false
        in
        if returns_owned then begin
          let outside_callers =
            List.filter
              (fun ((caller : Callgraph.func), _, g) ->
                String.equal (fkey g) (fkey f)
                && not (Frame.in_frame caller.Callgraph.file))
              edges
          in
          if outside_callers <> [] then
            findings :=
              Finding.v ~rule:Finding.R14_unsound_export ~file:f.Callgraph.file
                ~loc:f.Callgraph.loc ~func:(Callgraph.name f)
                (Fmt.str
                   "frame function exports an owned raw capability to %d non-frame call \
                    site(s); return it wrapped"
                   (List.length outside_callers))
              :: !findings
        end
      end)
    cg.Callgraph.funcs;
  let findings = Finding.sort !findings in
  (* The TCB table. *)
  let of_file rel rule =
    List.filter
      (fun (f : Finding.t) -> f.Finding.rule = rule && String.equal f.Finding.file rel)
      findings
  in
  let tbl : (string, int * int * int * int * bool * bool) Hashtbl.t = Hashtbl.create 16 in
  let frame_files = ref 0 in
  let frame_loc = ref 0 in
  let total_loc = ref 0 in
  let total_unsafe = ref 0 in
  List.iter
    (fun rel ->
      let floc = loc_of rel in
      let r12 = of_file rel Finding.R12_unsafe_primitive in
      let r13 = of_file rel Finding.R13_frame_bypass in
      let in_frame = Frame.in_frame rel in
      let unsafe =
        if in_frame then floc
        else
          List.length
            (List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.line) (r12 @ r13)))
      in
      if in_frame then begin
        incr frame_files;
        frame_loc := !frame_loc + floc
      end;
      total_loc := !total_loc + floc;
      total_unsafe := !total_unsafe + unsafe;
      let sub = (Subsystem.claim_of_path rel).Subsystem.sub in
      let loc0, unsafe0, d0, i0, fr0, ex0 =
        Option.value ~default:(0, 0, 0, 0, false, true) (Hashtbl.find_opt tbl sub)
      in
      Hashtbl.replace tbl sub
        ( loc0 + floc,
          unsafe0 + unsafe,
          d0 + List.length r12,
          i0 + List.length r13,
          fr0 || in_frame,
          ex0 && Frame.is_exhibit rel ))
    files;
  let rows =
    Hashtbl.fold
      (fun sub (loc, unsafe_loc, direct, indirect, in_frame, exhibit) acc ->
        { sub; loc; unsafe_loc; direct; indirect; in_frame; exhibit } :: acc)
      tbl []
    |> List.sort (fun a b -> String.compare a.sub b.sub)
  in
  let surface_vals, parse_errors =
    match surface_vals ~root with Ok n -> (n, []) | Error err -> (0, [ err ])
  in
  {
    findings;
    rows;
    frame_files = !frame_files;
    frame_loc = !frame_loc;
    surface_vals;
    total_loc = !total_loc;
    unsafe_loc = !total_unsafe;
    funcs = List.length cg.Callgraph.funcs;
    lock_creators = lock_class_creators parsed;
    parse_errors;
  }

let ratio result =
  if result.total_loc = 0 then 0.0
  else 100.0 *. float_of_int result.unsafe_loc /. float_of_int result.total_loc

(* Standalone entry (bench, tests): parse the tree and run kown, over the
   same graph, for the summaries R14 needs. *)
let analyze_tree ~root =
  let files, _errors = Kparse.parse_files ~root (Loc.ml_files_under ~root "lib") in
  let cg = Callgraph.build ~root files in
  let kown = Kown.analyze ~cg ~root files in
  analyze ~cg ~root files ~summaries:kown.Kown.summaries

(* The tcb.baseline count-ratchet ------------------------------------------ *)

(* The parse/compare/update engine lives in {!Baseline.Counts} (shared
   with kdur's dur.baseline); this is the tcb-flavoured instantiation,
   kept under the historical names so call sites read the same. *)

type baseline_entry = Baseline.Counts.entry = {
  b_rule : Finding.rule;
  b_file : string;
  b_count : int;
}

let compare_entry = Baseline.Counts.compare_entry
let counts_of_findings = Baseline.Counts.of_findings
let entry_to_line = Baseline.Counts.entry_to_line

let header =
  "# tcb baseline — grandfathered R12-R14 counts per (rule, file), the\n\
   # downward-only TCB ratchet.  Regenerate (after genuine shrinkage only) with:\n\
   #   dune exec bin/klint/main.exe -- --update-tcb-baseline\n"

let to_string entries = Baseline.Counts.to_string ~header entries
let of_string s = Baseline.Counts.of_string ~what:"tcb" s
let load path = Baseline.Counts.load ~what:"tcb" path
let save path entries = Baseline.Counts.save ~header path entries

type delta = Baseline.Counts.delta = {
  d_rule : Finding.rule;
  d_file : string;
  d_have : int;
  d_allowed : int;
}

let compare_counts = Baseline.Counts.compare_counts

(* Runtime reconciliation --------------------------------------------------- *)

(* A file is statically priced when it is the frame itself or carries at
   least one R12/R13/R14 finding — those are the only modules the TCB
   metric permits to generate raw-substrate traffic. *)
let priced ~result file =
  Frame.in_frame file
  || List.exists (fun (f : Finding.t) -> String.equal f.Finding.file file) result.findings

(* Raw heap events ([KSIM_KMEM_EXPORT]) from a module the metric
   classifies as frame-free: the static confinement claim is UNSOUND —
   same CI contract as kracer's and kown's reconciliations. *)
let unsound_kmem_events ~files ~result events =
  List.filter_map
    (fun (ev : Kown.kmem_event) ->
      match Kown.file_of_heap ~files ev.Kown.heap with
      | None -> None (* test-local scratch heap, no corresponding module *)
      | Some file -> if priced ~result file then None else Some (ev, file))
    events
  |> List.sort_uniq compare

(* The lockdep side: runtime lock-order edges whose lock class is (a)
   absent from the static lock graph and (b) created — by a literal
   [Klock.create ~name] — in a module the metric classifies as
   frame-free.  kracer already fails on (a) alone; this attributes the
   hole to the frame-confinement claim when the metric said the module
   had no business near raw locking. *)
let unsound_lock_edges ~result ~static_classes runtime_edges =
  let creators = result.lock_creators in
  runtime_edges
  |> List.concat_map (fun (a, b) -> [ Annot.lock_class a; Annot.lock_class b ])
  |> List.sort_uniq String.compare
  |> List.filter_map (fun cls ->
         if List.mem cls static_classes then None
         else
           match List.assoc_opt cls creators with
           | Some file when not (priced ~result file) -> Some (cls, file)
           | _ -> None)
