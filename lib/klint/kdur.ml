(* kdur — the interprocedural barrier-discipline & durability-ordering
   analysis (rules R16–R18), third of klint's summary-fixpoint passes
   after kracer (locks) and kown (ownership).

   Per-function {!Durset} walks carry only local facts; kdur closes them
   over the {!Callgraph} with one bottom-up {!Fixpoint} on durability
   transfers: whether a function leaves the device volatile (from a
   clean or dirty entry), writes at all, or performs a full barrier.
   Annotations ([@flushes]/[@durable]/[@orders_after], [.mli]-merged)
   override the inference where present, so a barrier contract can be
   stated once and checked against every caller.

   The second output is the runtime reconciliation: {!Kblock.Wcache}
   dumps its barrier-discipline audit (read-back-then-dependent-write
   violations) when [KSIM_WCACHE_EXPORT] is set, and
   [unflagged_wcache_violations] subtracts kdur's static R16 findings —
   any runtime violation in a linted file that kdur did not flag
   statically is an unsoundness (an ordering path the syntactic analysis
   failed to see) and fails CI, exactly like kracer's lock-graph and
   kown's kmem-event reconciliations.

   R16–R18 ratchet by per-(rule, file) count (dur.baseline, shared
   {!Baseline.Counts} engine), not by the ladder reconciliation: the
   journal's own [?barriers:false] ablation is a statically reachable
   missing-flush path inside Verified-claiming subsystems, and the
   ratchet must tolerate the declared mutant while forbidding new ones. *)

type result = {
  findings : Finding.t list;
  funcs : int;  (** functions analyzed *)
  durable_funcs : int;  (** functions contracted [@durable] *)
  ordering_funcs : int;  (** functions contracted [@orders_after] *)
  writing_funcs : int;  (** summaries that issue device writes *)
  flushing_funcs : int;  (** summaries that perform a full barrier *)
  summaries : (string * Durset.summary) list;
      (** the converged per-function transfers, keyed by qualified name *)
}

let empty =
  {
    findings = [];
    funcs = 0;
    durable_funcs = 0;
    ordering_funcs = 0;
    writing_funcs = 0;
    flushing_funcs = 0;
    summaries = [];
  }

(* The block mechanism itself is excluded: [Io.t] is the contract being
   policed, and Wcache/Blockdev/Flakydev are the devices implementing
   it — their write-back plumbing legitimately buffers, reorders and
   destages, so analyzing the mechanism would only flag itself. *)
let excluded rel =
  List.mem rel
    [
      "lib/kblock/io.ml"; "lib/kblock/wcache.ml"; "lib/kblock/blockdev.ml";
      "lib/kblock/flakydev.ml";
    ]

(* [?cg]: the whole-tree graph over [files], which {!Engine.lint_tree}
   shares between the passes; without it the pass builds its own. *)
let analyze ?cg ~root files =
  let cg = Callgraph.for_pass ?cg ~root ~keep:(fun rel -> not (excluded rel)) files in
  (* Bottom-up transfer fixpoint, kown's.  Effects only turn on as callee
     summaries arrive. *)
  let fix =
    Fixpoint.solve ~pass:"kdur" ~empty:Durset.empty_summary ~equal:Durset.summary_equal
      (fun ~lookup ~emit f -> Durset.summarize ~emit cg lookup f)
      cg.Callgraph.funcs
  in
  let writing_funcs, flushing_funcs =
    List.fold_left
      (fun (w, fl) (_, (s : Durset.summary)) ->
        ( (if s.Durset.writes then w + 1 else w),
          if s.Durset.flushes then fl + 1 else fl ))
      (0, 0) fix.Fixpoint.summaries
  in
  let durable_funcs, ordering_funcs =
    List.fold_left
      (fun (d, o) (f : Callgraph.func) ->
        ( (if f.Callgraph.annot.Annot.durable then d + 1 else d),
          if f.Callgraph.annot.Annot.orders_after <> [] then o + 1 else o ))
      (0, 0) cg.Callgraph.funcs
  in
  {
    findings = Finding.sort fix.Fixpoint.findings;
    funcs = List.length cg.Callgraph.funcs;
    durable_funcs;
    ordering_funcs;
    writing_funcs;
    flushing_funcs;
    summaries = fix.Fixpoint.summaries;
  }

(* Standalone entry (bench, tests): parse the tree itself. *)
let analyze_tree ~root =
  let files, _errors = Kparse.parse_files ~root (Loc.ml_files_under ~root "lib") in
  analyze ~root files

(* The count ratchet --------------------------------------------------------- *)

let baseline_header =
  "# dur baseline — grandfathered durability findings (R16-R18), counted per\n\
   # (rule, file).  The declared exhibits live here: the journal's\n\
   # ?barriers:false ablation paths and lib/kfs/rawlog_unsafe.ml.  Shrink by\n\
   # fixing barrier paths; regenerate (after genuine fixes only) with:\n\
   #   dune exec bin/klint/main.exe -- --update-dur-baseline\n"

let load_baseline path = Baseline.Counts.load ~what:"dur" path
let save_baseline path entries = Baseline.Counts.save ~header:baseline_header path entries

(* Runtime reconciliation --------------------------------------------------- *)

type wcache_violation = {
  cache : string;
  v_blkno : int;
  v_read_seq : int;
  v_write_blkno : int;
  v_write_seq : int;
}

(* "name\tblkno\tread_seq\twrite_blkno\twrite_seq" per line, the format
   [Wcache]'s [KSIM_WCACHE_EXPORT] at_exit hook writes.  Unparseable
   lines are errors — a truncated export must not pass reconciliation by
   vacuity. *)
let read_wcache_violations path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> loop acc
        | line -> (
            match String.split_on_char '\t' line with
            | [ cache; a; b; c; d ] -> (
                match
                  ( int_of_string_opt a, int_of_string_opt b, int_of_string_opt c,
                    int_of_string_opt d )
                with
                | Some v_blkno, Some v_read_seq, Some v_write_blkno, Some v_write_seq ->
                    loop
                      ({ cache; v_blkno; v_read_seq; v_write_blkno; v_write_seq } :: acc)
                | _ -> Error (Fmt.str "%s: malformed wcache violation line %S" path line))
            | _ -> Error (Fmt.str "%s: malformed wcache violation line %S" path line))
      in
      loop [])

(* A cache is attributed to the linted file whose module basename equals
   the cache name ([~name:"rawlog_unsafe"] -> [lib/kfs/rawlog_unsafe.ml]);
   caches with no such file (test-local scratch caches, default-named
   stacks) cannot correspond to a static finding and are skipped, as are
   caches naming a mechanism file kdur excludes by design. *)
let file_of_cache ~files cache =
  List.find_opt
    (fun rel -> String.equal (Filename.remove_extension (Filename.basename rel)) cache)
    files

(* Aggregate runtime violations by cache and subtract the static
   findings: a cache survives — [(cache, file, count)] — when its file
   has no static R16 finding at all.  Audit violations carry block
   numbers and write sequences, not source locations, so the granularity
   is the file: the static analysis must have *something* to say about
   unordered dependent writes in that file, baselined or not. *)
let unflagged_wcache_violations ~files ~findings events =
  let agg = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      Hashtbl.replace agg ev.cache
        (1 + Option.value ~default:0 (Hashtbl.find_opt agg ev.cache)))
    events;
  Hashtbl.fold (fun cache n acc -> (cache, n) :: acc) agg []
  |> List.sort compare
  |> List.filter_map (fun (cache, n) ->
         match file_of_cache ~files cache with
         | None -> None
         | Some file when excluded file -> None
         | Some file ->
             if
               List.exists
                 (fun (f : Finding.t) ->
                   f.Finding.rule = Finding.R16_unordered_write
                   && String.equal f.Finding.file file)
                 findings
             then None
             else Some (cache, file, n))
