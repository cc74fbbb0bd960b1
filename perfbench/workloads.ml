(* The four workloads.  Each runs once per process: set up, run one timed
   region with tracing off (or through the probes when traced), then
   check the outputs.  Only public functions of Kload, Kharness,
   Kspec.Krefine, Kvfs, Kfs, Kblock and Klint are driven. *)

module Fs = Kspec.Fs_spec
module Krefine = Kspec.Krefine

(* What the GC and the clock saw of the timed region. *)
type region = {
  start_ns : int;  (** monotonic clock when the timed region began *)
  wall_ns : int;
  alloc_words : float;  (** minor + major - promoted words *)
  top_heap_bytes : int;  (** peak major heap at the end of the region *)
  major_collections : int;
}

type outcome = {
  region : region;
  work : int;  (** units of work done in the timed region *)
  attempted : int;  (** units of work offered: [work] plus load-mixed's shed ops *)
  failed : int;  (** units whose output is wrong *)
  fail_share_num : int;  (** numerator of [fail_share]; denominator [attempted] *)
  fingerprint : string;  (** must repeat across runs of one seed, traced or not *)
  gates : (string * bool) list;
  extra : (string * float) list;  (** workload-specific end-to-end figures *)
  layers : (string * float) list;  (** per-layer figures (traced runs) *)
}

let s_of_ns ns = float_of_int ns /. 1e9

let timed f =
  let g0 = Gc.quick_stat () in
  let t0 = Probe.now_ns () in
  let r = f () in
  let t1 = Probe.now_ns () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      start_ns = t0;
      wall_ns = t1 - t0;
      alloc_words =
        g1.Gc.minor_words -. g0.Gc.minor_words
        +. (g1.Gc.major_words -. g0.Gc.major_words)
        -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      top_heap_bytes = g1.Gc.top_heap_words * (Sys.word_size / 8);
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* Nearest-rank percentile of a sorted, non-empty array. *)
let percentile sorted p =
  let rank = int_of_float (Float.ceil (p *. float_of_int (Array.length sorted))) in
  sorted.(max 0 (min (Array.length sorted) rank - 1))

let md5 s = Digest.to_hex (Digest.string s)

(* load-mixed ---------------------------------------------------------------- *)

let load_mixed ~seed ~traced:_ ~check:_ =
  let spec = { Kload.Spec.default with Kload.Spec.tenants = 10_000; ops_per_tenant = 8 } in
  let res, region =
    timed (fun () -> Kload.Harness.run ~spec ~storm:Kload.Harness.Mixed ~seed ())
  in
  let r = res.Kload.Harness.report in
  let stat = Ksim.Kstats.get res.Kload.Harness.stats in
  let verdict = Kload.Slo.evaluate r in
  let f = float_of_int in
  {
    region;
    work = r.Kload.Report.executed;
    attempted = r.Kload.Report.planned;
    failed = r.Kload.Report.lost_acked_writes;
    fail_share_num = r.Kload.Report.errors + r.Kload.Report.shed;
    fingerprint = r.Kload.Report.fingerprint;
    gates =
      [
        ("lost_acked_writes=0", r.Kload.Report.lost_acked_writes = 0);
        ("crashed_tenants=0", res.Kload.Harness.crashed_tenants = 0);
        ("slo_pass", verdict.Kload.Slo.passed);
        ( "all_planned_ops_accounted",
          r.Kload.Report.executed + r.Kload.Report.shed = r.Kload.Report.planned );
      ];
    extra = [];
    (* kload has no probe points the benchmark can reach: its stack is
       built inside [Harness.run].  Its own counters stand in. *)
    layers =
      [
        ("kload.executed", f r.Kload.Report.executed);
        ("kload.shed", f r.Kload.Report.shed);
        ("kload.write_contended", f (stat "kload.write_contended"));
        ("supervisor.restarts", f (stat "supervisor.restarts"));
        ("supervisor.eintr_aborted", f (stat "supervisor.eintr_aborted"));
        ("supervisor.stale_handles", f (stat "supervisor.stale_handles"));
        ("failpoint.injected", f r.Kload.Report.injected_faults);
        ("wcache.flushes", f (stat "kload.wcache.flushes"));
        ("wcache.flush_drops", f (stat "kload.wcache.flush-drops"));
        ("gc.major_collections", f region.major_collections);
      ];
  }

(* dur-stack ------------------------------------------------------------------ *)

(* kload's /dur device geometry and write-back cache size. *)
let dur_geometry =
  { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }

let dur_trace_ops = 24_000
let dur_cache_blocks = 32

(* kload retries 6 times and tolerates the residual errors; here every
   result is held to the spec, so the budget makes a permanent failure
   improbable at the eio-wave fault rate (under 0.3 per attempt). *)
let dur_attempts = 16

let dur_stack ~seed ~traced ~check =
  let recorded = Kharness.recorded_trace ~target_ops:dur_trace_ops ~seed () in
  let trace = Array.sub (Array.of_list recorded) 0 dur_trace_ops in
  let n = dur_trace_ops in
  let names = [ "vfs"; "journalfs"; "resilient"; "flakydev"; "wcache"; "blockdev" ] in
  let layers = List.map Probe.layer names in
  let layer name = List.find (fun l -> l.Probe.name = name) layers in
  let via name io = if traced then Probe.io (layer name) io else io in
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed () in
  let dev =
    Kblock.Blockdev.create ~nblocks:dur_geometry.Kfs.Journalfs.nblocks
      ~block_size:dur_geometry.Kfs.Journalfs.block_size
  in
  let wc =
    Kblock.Wcache.create ~name:"wcache" ~capacity:dur_cache_blocks ~fp ~seed
      (via "blockdev" (Kblock.Blockdev.io dev))
  in
  let flaky = Kblock.Flakydev.create ~fp (via "wcache" (Kblock.Wcache.io wc)) in
  let resilient =
    Kblock.Resilient.create ~max_attempts:dur_attempts (via "flakydev" (Kblock.Flakydev.io flaky))
  in
  let io = via "resilient" (Kblock.Resilient.io resilient) in
  let fs0 = Kfs.Journalfs.mkfs_on ~geometry:dur_geometry ~io Kfs.Journalfs.Journaled dev in
  let fs_ops =
    if traced then Probe.fs_ops (layer "journalfs") (module Kfs.Journalfs.Journaled_fs)
    else (module Kfs.Journalfs.Journaled_fs : Kvfs.Iface.FS_OPS with type fs = Kfs.Journalfs.t)
  in
  let remake () =
    let (_ : unit Ksim.Errno.r) = Kblock.Wcache.flush wc in
    Kvfs.Iface.instance fs_ops
      (Kfs.Journalfs.mount ~geometry:dur_geometry ~io Kfs.Journalfs.Journaled dev)
  in
  let vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount vfs ~at:[] ~remake (Kvfs.Iface.instance fs_ops fs0) with
  | Ok () -> ()
  | Error _ -> failwith "dur-stack: mount failed");
  let storm = Ksim.Storm.create ~fp () in
  Ksim.Storm.add storm
    (Kload.Harness.bursts_for Kload.Harness.Eio_wave ~total_ticks:n
    @ Kload.Harness.bursts_for Kload.Harness.Cache_wave ~total_ticks:n);
  (* Counters from here on belong to the timed region, not to mkfs. *)
  List.iter Probe.reset layers;
  let wc0 = (Kblock.Wcache.flushes wc, Kblock.Wcache.writebacks wc, Kblock.Wcache.cache_hits wc) in
  let results = Array.make n (Ok Fs.Unit) in
  let lat = Array.make n 0 in
  let vfs_layer = layer "vfs" in
  let (), region =
    timed (fun () ->
        for i = 0 to n - 1 do
          Ksim.Storm.tick storm (i + 1);
          if traced then
            results.(i) <- Probe.span vfs_layer (fun () -> Kvfs.Vfs.apply vfs trace.(i))
          else begin
            let a = Probe.now_ns () in
            results.(i) <- Kvfs.Vfs.apply vfs trace.(i);
            lat.(i) <- Probe.now_ns () - a
          end
        done)
  in
  Ksim.Storm.disable storm;
  Ksim.Failpoint.disable_all fp;
  (* The spec replay, after the timed loop.  Runs that skip it are held
     to the checked run by the fingerprint over every result. *)
  let mismatches = ref 0 in
  let spec_gates =
    if not check then []
    else begin
      let spec = ref Fs.empty in
      Array.iteri
        (fun i op ->
          let st, r = Fs.step !spec op in
          spec := st;
          if not (Fs.equal_result r results.(i)) then incr mismatches)
        trace;
      [
        ("results=Fs_spec.step", !mismatches = 0);
        ("final_state=Fs_spec.step", Fs.equal (Kvfs.Vfs.interpret vfs) !spec);
      ]
    end
  in
  let flushes0, writebacks0, hits0 = wc0 in
  let flushes = Kblock.Wcache.flushes wc - flushes0 in
  let writebacks = Kblock.Wcache.writebacks wc - writebacks0 in
  let hits = Kblock.Wcache.cache_hits wc - hits0 in
  let user_bytes =
    Array.fold_left
      (fun acc -> function Fs.Write { data; _ } -> acc + String.length data | _ -> acc)
      0 trace
  in
  let fingerprint =
    let buf = Buffer.create (n * 8) in
    Array.iter (fun r -> Buffer.add_string buf (Fmt.str "%a;" Fs.pp_result r)) results;
    Buffer.add_string buf
      (Printf.sprintf "|%d|%d|%d|%d|%d" flushes writebacks hits
         (Kblock.Resilient.retries resilient) (Kblock.Flakydev.injected flaky));
    md5 (Buffer.contents buf)
  in
  let f = float_of_int in
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let us ns = f ns /. 1e3 in
  let per_layer =
    if not traced then []
    else
      let blockdev = layer "blockdev" in
      List.concat_map
        (fun l ->
          [
            (l.Probe.name ^ ".self_s", s_of_ns l.Probe.self_ns);
            (l.Probe.name ^ ".calls", f l.Probe.calls);
          ])
        layers
      @ [
          ("wcache.flush_self_s", s_of_ns (layer "wcache").Probe.flush_self_ns);
          ("resilient.retries", f (Kblock.Resilient.retries resilient));
          ("flakydev.injected", f (Kblock.Flakydev.injected flaky));
          ("wcache.flushes", f flushes);
          ("wcache.writebacks", f writebacks);
          ("wcache.cache_hits", f hits);
          ("blockdev.bytes_written", f blockdev.Probe.bytes_written);
          ("dur.write_amp", f blockdev.Probe.bytes_written /. f (max 1 user_bytes));
          ("dur.residual_s", s_of_ns (Probe.residual_ns ~wall_ns:region.wall_ns layers));
          ("gc.major_collections", f region.major_collections);
        ]
  in
  {
    region;
    work = n;
    attempted = n;
    failed = !mismatches;
    fail_share_num = !mismatches;
    fingerprint;
    gates =
      ("vfs_calls=trace_ops", (not traced) || vfs_layer.Probe.calls = n)
      :: ("layers_within_wall", Probe.residual_ns ~wall_ns:region.wall_ns layers >= 0)
      :: spec_gates;
    extra =
      (if traced then []
       else
         [
           ("op_p50_us", us (percentile sorted 0.50));
           ("op_p99_us", us (percentile sorted 0.99));
           ("latency_samples", f n);
         ]);
    layers = per_layer;
  }

(* refine-crash --------------------------------------------------------------- *)

(* Sized so that the crash-image registry leak stays well inside an 8 GB
   host: every crash image keeps its disk alive for the whole process. *)
let refine_trace_ops = 120

let refine_crash ~seed ~traced ~check:_ =
  let trace =
    List.filteri
      (fun i _ -> i < refine_trace_ops)
      (Kharness.recorded_trace ~target_ops:refine_trace_ops ~seed ())
  in
  let config =
    { Krefine.default_config with Krefine.seed; images_per_op = 4; crash_every = 4 }
  in
  let phases = Probe.phases () in
  let residual_ns wall_ns = Probe.residual_ns ~wall_ns (Probe.phase_list phases) in
  let run_one (e : Kharness.entry) =
    if traced then
      let (Kharness.Packed m) = e.Kharness.machine in
      Krefine.run ~config (Probe.machine phases m) trace
    else Kharness.run ~config e trace
  in
  let covs, region = timed (fun () -> List.map run_one (Kharness.all ())) in
  let sum g = List.fold_left (fun acc c -> acc + g c) 0 covs in
  let states = sum (fun c -> c.Krefine.states_explored) in
  let divergences = sum (fun c -> List.length c.Krefine.divergences) in
  let f = float_of_int in
  let per_layer =
    if not traced then []
    else
      List.map
        (fun l -> (l.Probe.name ^ "_s", s_of_ns l.Probe.self_ns))
        (Probe.phase_list phases)
      @ [
          ("krefine.residual_s", s_of_ns (residual_ns region.wall_ns));
          ("krefine.states", f states);
          ("krefine.crash_images", f (sum (fun c -> c.Krefine.crash_images)));
          ("krefine.skipped_images", f (sum (fun c -> c.Krefine.skipped_images)));
          ( "krefine.frontier_peak",
            f (List.fold_left (fun acc c -> max acc c.Krefine.frontier_peak) 0 covs) );
          ("gc.major_collections", f region.major_collections);
        ]
  in
  {
    region;
    work = states;
    attempted = states;
    failed = divergences;
    fail_share_num = divergences;
    fingerprint = String.concat "," (List.map Krefine.coverage_fingerprint covs);
    gates =
      [
        ("divergences=0", List.for_all Krefine.is_clean covs);
        ("harnesses_run", covs <> []);
        ("crash_images_enumerated", sum (fun c -> c.Krefine.crash_images) > 0);
        ("layers_within_wall", residual_ns region.wall_ns >= 0);
      ];
    extra =
      [
        ("states_per_s", f states /. s_of_ns region.wall_ns);
        ("trace_ops", f (List.length trace));
      ];
    layers = per_layer;
  }

(* lint-tree ------------------------------------------------------------------ *)

module Engine = Klint.Engine

(* Finding counts per rule id, over the ladder findings plus ktcb's and
   kdur's (each kept out of the ladder by the engine). *)
let rule_counts findings =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (fd : Klint.Finding.t) ->
      let id = Klint.Finding.rule_id fd.Klint.Finding.rule in
      Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id)))
    findings;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let lint_layer_names =
  [
    "klint.parse";
    "klint.rules";
    "klint.kracer";
    "klint.kown";
    "klint.ktcb";
    "klint.kdur";
    "klint.kverify";
  ]

(* The passes of [Engine.lint_tree], each called on its own and charged
   to its layer; returns the per-rule counts and the parse errors. *)
let lint_passes ~root files layers =
  let pass name f = Probe.span (List.find (fun l -> l.Probe.name = name) layers) f in
  let parsed, errors =
    pass "klint.parse" (fun () ->
        List.partition_map
          (fun rel ->
            match Klint.Kparse.parse (Filename.concat root rel) with
            | Ok s -> Left (rel, s)
            | Error msg -> Right (rel, msg))
          files)
  in
  let findings =
    pass "klint.rules" (fun () ->
        List.concat_map (fun (rel, s) -> Engine.lint_structure ~file:rel ~prefix:"" s) parsed)
  in
  let kracer = pass "klint.kracer" (fun () -> Klint.Kracer.analyze ~root parsed) in
  let kown = pass "klint.kown" (fun () -> Klint.Kown.analyze ~root parsed) in
  let ktcb =
    pass "klint.ktcb" (fun () ->
        Klint.Ktcb.analyze ~root parsed ~summaries:kown.Klint.Kown.summaries)
  in
  let kdur = pass "klint.kdur" (fun () -> Klint.Kdur.analyze ~root parsed) in
  let (_ : Klint.Kverify.result) = pass "klint.kverify" (fun () -> Klint.Kverify.scan parsed) in
  (* The engine's own remainder: the sort and the effective-line count. *)
  let ladder =
    Klint.Finding.sort (kown.Klint.Kown.findings @ kracer.Klint.Kracer.findings @ findings)
  in
  let (_ : int) =
    List.fold_left (fun acc rel -> acc + Klint.Loc.count_file (Filename.concat root rel)) 0 files
  in
  ( rule_counts (ladder @ ktcb.Klint.Ktcb.findings @ kdur.Klint.Kdur.findings),
    List.length errors,
    parsed )

let lint_tree ~root ~seed:_ ~traced ~check =
  let files = Klint.Loc.ml_files_under ~root "lib" in
  let layers = List.map Probe.layer lint_layer_names in
  let passes layers = lint_passes ~root files layers in
  let engine () =
    let t = Engine.lint_tree ~root in
    ( rule_counts
        (t.Engine.findings @ t.Engine.ktcb.Klint.Ktcb.findings @ t.Engine.kdur.Klint.Kdur.findings),
      List.length t.Engine.parse_errors,
      [] )
  in
  let (counts, errors, parsed), region =
    timed (fun () -> if traced then passes layers else engine ())
  in
  (* The other path, untimed, is the correctness reference. *)
  let reference_gates =
    if not check then []
    else
      let ref_counts, ref_errors, _ =
        if traced then engine () else passes (List.map Probe.layer lint_layer_names)
      in
      [ ("per_rule_counts=Engine.lint_tree", counts = ref_counts && errors = ref_errors) ]
  in
  let f = float_of_int in
  let per_layer =
    if not traced then []
    else
      (* One [Callgraph.build], priced on its own: kracer, kown, ktcb and
         kdur each build it inside their own time, so it is not added to
         the sum. *)
      let cg_layer = Probe.layer "klint.callgraph" in
      let cg = Probe.span cg_layer (fun () -> Klint.Callgraph.build ~root parsed) in
      List.map (fun l -> (l.Probe.name ^ "_s", s_of_ns l.Probe.self_ns)) layers
      @ [
          ("klint.callgraph_s", s_of_ns cg_layer.Probe.self_ns);
          ("klint.residual_s", s_of_ns (Probe.residual_ns ~wall_ns:region.wall_ns layers));
          ("klint.files", f (List.length files));
          ("klint.functions", f (List.length cg.Klint.Callgraph.funcs));
          ("klint.findings", f (List.fold_left (fun acc (_, c) -> acc + c) 0 counts));
          ("gc.major_collections", f region.major_collections);
        ]
  in
  {
    region;
    work = List.length files;
    attempted = List.length files;
    failed = errors;
    fail_share_num = errors;
    fingerprint =
      md5 (String.concat ";" (List.map (fun (r, c) -> Printf.sprintf "%s=%d" r c) counts));
    gates =
      ("parse_errors=0", errors = 0)
      :: ("layers_within_wall", Probe.residual_ns ~wall_ns:region.wall_ns layers >= 0)
      :: reference_gates;
    extra = [];
    layers = per_layer;
  }

let all =
  [
    ("load-mixed", load_mixed);
    ("dur-stack", dur_stack);
    ("refine-crash", refine_crash);
    ("lint-tree", lint_tree ~root:".");
  ]
