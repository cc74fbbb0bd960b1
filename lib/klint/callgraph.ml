(* The whole-tree call graph kracer propagates lock-context facts over.

   Built from the same compiler-libs parsetrees the per-file rules use.
   Resolution is sparse-style syntactic: a function is keyed by its
   qualified path (file module name plus nested modules, e.g.
   [Memfs_unsafe.set_size]); a call site's path resolves to the known
   function whose qualified path is suffix-compatible with it, with
   same-file definitions preferred for unqualified calls and ambiguous
   names left unresolved rather than guessed.  Unresolved calls are
   assumed lock-neutral — the documented unsoundness kracer's
   runtime-graph reconciliation exists to catch.

   One graph serves the whole tree: {!Engine.lint_tree} builds it once
   and each pass takes the {!restrict}ion it needs, so every [.mli] is
   parsed once per lint and each call site's resolution is computed once
   per graph. *)

open Parsetree

type func = {
  qualname : string list;  (** [["Memfs_unsafe"; "set_size"]] *)
  file : string;  (** root-relative path of the defining [.ml] *)
  loc : Location.t;
  annot : Annot.t;  (** merged from the [.ml] binding and its [.mli] val *)
  body : expression;
}

let name func = String.concat "." func.qualname

type t = {
  funcs : func list;  (** in definition order, deterministic *)
  by_last : (string, func list) Hashtbl.t;  (** last component -> candidates *)
  mli_errors : (string * string) list;
      (** [.mli] files that failed to parse, with their messages: their
          contracts are missing from [funcs], so the lint must not pass *)
  resolved : (string * string list, func option) Hashtbl.t;
      (** [resolve]'s memo, keyed by (caller file, path) *)
}

(* Collection ------------------------------------------------------------- *)

let module_name_of_file rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

let binding_name vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
      Some txt
  | _ -> None

let rec collect_structure ~file ~prefix structure =
  List.concat_map (collect_item ~file ~prefix) structure

and collect_item ~file ~prefix item =
  match item.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.filter_map
        (fun vb ->
          match binding_name vb with
          | Some n ->
              Some
                {
                  qualname = prefix @ [ n ];
                  file;
                  loc = vb.pvb_loc;
                  annot = Annot.of_attributes vb.pvb_attributes;
                  body = vb.pvb_expr;
                }
          | None -> None)
        vbs
  | Pstr_module mb -> collect_module ~file ~prefix mb.pmb_name.txt mb.pmb_expr
  | Pstr_recmodule mbs ->
      List.concat_map (fun mb -> collect_module ~file ~prefix mb.pmb_name.txt mb.pmb_expr) mbs
  | Pstr_include { pincl_mod; _ } -> collect_module ~file ~prefix None pincl_mod
  | _ -> []

and collect_module ~file ~prefix name mexpr =
  let prefix = match name with Some n -> prefix @ [ n ] | None -> prefix in
  match mexpr.pmod_desc with
  | Pmod_structure structure -> collect_structure ~file ~prefix structure
  | Pmod_functor (_, body) -> collect_module ~file ~prefix None body
  | Pmod_constraint (m, _) -> collect_module ~file ~prefix None m
  | _ -> []

(* [.mli] annotations: doc comments on [val] items, merged into the
   implementation's functions by qualified name. *)
let rec collect_sig_annots ~prefix signature =
  List.concat_map
    (fun (item : signature_item) ->
      match item.psig_desc with
      | Psig_value vd -> (
          match Annot.of_attributes vd.pval_attributes with
          | a when Annot.is_empty a -> []
          | a -> [ (prefix @ [ vd.pval_name.txt ], a) ])
      | Psig_module { pmd_name = { txt = Some n; _ }; pmd_type; _ } -> (
          match pmd_type.pmty_desc with
          | Pmty_signature s -> collect_sig_annots ~prefix:(prefix @ [ n ]) s
          | _ -> [])
      | _ -> [])
    signature

(* The [.mli] annotations of [rel_ml], or the interface's parse error. *)
let mli_annots ~root rel_ml =
  let mli = Filename.remove_extension rel_ml ^ ".mli" in
  if not (Sys.file_exists (Filename.concat root mli)) then Ok []
  else
    match Kparse.parse_interface (Filename.concat root mli) with
    | Ok signature -> Ok (collect_sig_annots ~prefix:[ module_name_of_file rel_ml ] signature)
    | Error msg -> Error (mli, msg)

(* Build ------------------------------------------------------------------ *)

let of_funcs funcs ~mli_errors =
  let by_last = Hashtbl.create 256 in
  List.iter
    (fun f ->
      match List.rev f.qualname with
      | last :: _ ->
          Hashtbl.replace by_last last (f :: (Option.value ~default:[] (Hashtbl.find_opt by_last last)))
      | [] -> ())
    funcs;
  { funcs; by_last; mli_errors; resolved = Hashtbl.create 1024 }

let build ~root files =
  let mli_errors = ref [] in
  let funcs =
    List.concat_map
      (fun (rel, structure) ->
        let prefix = [ module_name_of_file rel ] in
        let funcs = collect_structure ~file:rel ~prefix structure in
        match mli_annots ~root rel with
        | Ok [] -> funcs
        | Ok sig_annots ->
            List.map
              (fun f ->
                match List.assoc_opt f.qualname sig_annots with
                | Some a -> { f with annot = Annot.union f.annot a }
                | None -> f)
              funcs
        | Error err ->
            mli_errors := err :: !mli_errors;
            funcs)
      files
  in
  of_funcs funcs ~mli_errors:(List.rev !mli_errors)

(* [restrict t ~keep]: the graph [build] makes over the files [keep]
   accepts — the same functions in the same order, sharing [t]'s
   records — without parsing anything again.  Each pass restricts the
   whole-tree graph by its own exclusion list. *)
let restrict t ~keep =
  of_funcs
    (List.filter (fun f -> keep f.file) t.funcs)
    ~mli_errors:
      (List.filter
         (fun (mli, _) -> keep (Filename.remove_extension mli ^ ".ml"))
         t.mli_errors)

(* A pass's graph over [files] minus those [keep] rejects: [cg], the
   whole-tree graph over [files], restricted, or a fresh build. *)
let for_pass ?cg ~root ~keep files =
  match cg with
  | Some cg -> restrict cg ~keep
  | None -> build ~root (List.filter (fun (rel, _) -> keep rel) files)

(* Resolution ------------------------------------------------------------- *)

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a', y :: b' -> String.equal x y && is_prefix a' b'
  | _ :: _, [] -> false

(* [resolve t ~caller path]: the function a call to [path] denotes, if
   any.  [path] is the flattened longident ([["Kvfs"; "Vtypes"; "f"]]).
   Qualified calls match on reversed-module-path prefix compatibility
   (so [Kvfs.Vtypes.f] and [Vtypes.f] both reach [Vtypes.f]); unqualified
   calls prefer the latest same-file definition (lexical shadowing,
   approximately) and otherwise require a unique global candidate.  The
   answer depends on [caller.file], [path] and [t] alone, so it is
   memoised in [t]. *)
let resolve_uncached t ~file path =
  match List.rev path with
  | [] -> None
  | last :: rev_mods -> (
      match Hashtbl.find_opt t.by_last last with
      | None -> None
      | Some candidates -> (
          let candidates = List.rev candidates (* definition order *) in
          match rev_mods with
          | [] -> (
              match
                List.filter (fun f -> String.equal f.file file) candidates
              with
              | [] -> ( match candidates with [ f ] -> Some f | _ -> None)
              | same_file ->
                  (* last definition wins, like shadowing *)
                  Some (List.nth same_file (List.length same_file - 1)))
          | _ ->
              let compatible f =
                let rev_qmods = List.tl (List.rev f.qualname) in
                is_prefix rev_qmods rev_mods || is_prefix rev_mods rev_qmods
              in
              ( match List.filter compatible candidates with
              | [ f ] -> Some f
              | [] -> None
              | several -> (
                  (* prefer a same-file match, else ambiguous *)
                  match List.filter (fun f -> String.equal f.file file) several with
                  | [ f ] -> Some f
                  | _ -> None ) ) ) )

let resolve t ~caller path =
  let key = (caller.file, path) in
  match Hashtbl.find_opt t.resolved key with
  | Some r -> r
  | None ->
      let r = resolve_uncached t ~file:caller.file path in
      Hashtbl.add t.resolved key r;
      r
