(* safeos: the command-line face of the simulator.

   Subcommands regenerate each paper artifact (figures, the CWE table,
   the injection matrix), run the incremental migration, crash-test the
   journaled and direct file systems, and replay workloads. *)

let std = Format.std_formatter

(* The kernel as shipped, from the shared Boot module.  LoC values come
   from klint's per-subsystem line counts when the source tree is on
   disk, so the Figure-1 audit cannot drift from the code. *)
let boot_registry () =
  let loc_of =
    match Klint.find_root () with
    | Some root -> fun name -> Klint.registry_loc ~root name
    | None -> fun _ -> None
  in
  Safeos_core.Boot.registry ~loc_of ()

(* figures ------------------------------------------------------------- *)

let figures which =
  let r = boot_registry () in
  (match which with
  | "1" -> Kcve.Figures.fig1 std r
  | "2a" -> Kcve.Figures.fig2a std ()
  | "2b" -> Kcve.Figures.fig2b std ()
  | "2c" -> Kcve.Figures.fig2c std ()
  | "cwe" -> Kcve.Figures.cwe_table std ()
  | "matrix" -> Kcve.Figures.injection_matrix std ()
  | _ -> Kcve.Figures.all std r);
  Format.pp_print_flush std ()

(* migrate ------------------------------------------------------------- *)

let migrate validation_ops =
  let r = boot_registry () in
  Fmt.pr "before migration:@.%a@.@." Safeos_core.Registry.pp r;
  let outcomes =
    Safeos_core.Roadmap.run_plan ~validation_ops r (Safeos_core.Roadmap.memfs_ladder ())
  in
  List.iter (fun o -> Fmt.pr "  %a@." Safeos_core.Roadmap.pp_outcome o) outcomes;
  Fmt.pr "@.after migration:@.%a@.@." Safeos_core.Registry.pp r;
  Safeos_core.Audit.render_progress std (Safeos_core.Audit.progress r);
  Format.pp_print_flush std ();
  if List.for_all Safeos_core.Roadmap.succeeded outcomes then 0 else 1

(* crash-test ---------------------------------------------------------- *)

let crash_test mode ops images =
  let trace =
    Kfs.Workload.generate ~seed:11 Kfs.Workload.Mixed ~ops
    |> List.filter (fun op ->
           (* keep the trace journal-friendly: moderate payloads *)
           match op with
           | Kspec.Fs_spec.Write { data; _ } -> String.length data <= 512
           | _ -> true)
  in
  let check name (module F : Kspec.Crash.CRASHABLE_FS) =
    let verdict = Kspec.Crash.check (module F) ~images_per_point:images trace in
    Fmt.pr "%-10s ops=%d crash-points=%d images=%d failures=%d -> %s@." name
      verdict.Kspec.Crash.ops_executed verdict.Kspec.Crash.crash_points
      verdict.Kspec.Crash.images_checked
      (List.length verdict.Kspec.Crash.failures)
      (if Kspec.Crash.is_safe verdict then "CRASH-SAFE" else "UNSAFE");
    List.iteri
      (fun i f -> if i < 3 then Fmt.pr "    %a@." Kspec.Crash.pp_failure f)
      verdict.Kspec.Crash.failures;
    Kspec.Crash.is_safe verdict
  in
  match mode with
  | "journaled" -> if check "journaled" (module Kfs.Journalfs.Crashable_journaled) then 0 else 1
  | "group" ->
      if check "group" (module Kfs.Journalfs.Crashable_journaled_group) then 0 else 1
  | "direct" -> if check "direct" (module Kfs.Journalfs.Crashable_direct) then 0 else 1
  | _ ->
      let a = check "journaled" (module Kfs.Journalfs.Crashable_journaled) in
      let g = check "group" (module Kfs.Journalfs.Crashable_journaled_group) in
      let b = check "direct" (module Kfs.Journalfs.Crashable_direct) in
      Fmt.pr "@.expected shape: journaled and group-commit crash-safe, direct not.@.";
      if a && g && not b then 0 else 1

(* inject --------------------------------------------------------------- *)

let inject verbose =
  let m = Kbugs.Inject.matrix () in
  Kbugs.Inject.render_matrix std m;
  if verbose then begin
    Fmt.pr "@.details:@.";
    List.iter
      (fun (fault, cells) ->
        List.iter
          (fun (stage, d) ->
            Fmt.pr "  %-22s @ %-14s %s@."
              (Kbugs.Inject.fault_to_string fault)
              (Safeos_core.Level.to_string stage)
              (Kbugs.Inject.detection_to_string d))
          cells)
      m
  end;
  let c = Kbugs.Analysis.check_claims () in
  Fmt.pr "@.claims checked: %d, upheld: %d@." c.Kbugs.Analysis.claims_checked
    c.Kbugs.Analysis.claims_upheld;
  Format.pp_print_flush std ();
  if c.Kbugs.Analysis.broken = [] then 0 else 1

(* workload -------------------------------------------------------------- *)

let fs_by_name = function
  | "memfs_unsafe" -> Some (Kvfs.Iface.make (module Kfs.Memfs_unsafe.Modular) ())
  | "memfs_typed" -> Some (Kvfs.Iface.make (module Kfs.Memfs_typed) ())
  | "memfs_owned" -> Some (Kvfs.Iface.make (module Kfs.Memfs_owned) ())
  | "memfs_verified" -> Some (Kvfs.Iface.make (module Kfs.Memfs_verified) ())
  | "journalfs" -> Some (Kvfs.Iface.make (module Kfs.Journalfs.Journaled_fs) ())
  | "unionfs" -> Some (Kvfs.Iface.make (module Kfs.Unionfs) ())
  | "cowfs" -> Some (Kvfs.Iface.make (module Kfs.Cowfs) ())
  | _ -> None

let profile_by_name = function
  | "metadata" -> Some Kfs.Workload.Metadata_heavy
  | "data" -> Some Kfs.Workload.Data_heavy
  | "mixed" -> Some Kfs.Workload.Mixed
  | "read" -> Some Kfs.Workload.Read_mostly
  | _ -> None

let workload fs_name profile_name ops seed =
  match (fs_by_name fs_name, profile_by_name profile_name) with
  | None, _ ->
      Fmt.epr "unknown fs %S@." fs_name;
      2
  | _, None ->
      Fmt.epr "unknown profile %S@." profile_name;
      2
  | Some instance, Some profile ->
      let trace = Kfs.Workload.generate ~seed profile ~ops in
      let t0 = Unix.gettimeofday () in
      let ok, errs = Kfs.Workload.replay instance trace in
      let dt = Unix.gettimeofday () -. t0 in
      Fmt.pr "fs=%s profile=%s ops=%d ok=%d err=%d  %.3f s (%.0f ops/s)@."
        (Kvfs.Iface.instance_name instance)
        (Kfs.Workload.profile_to_string profile)
        ops ok errs dt
        (float_of_int ops /. dt);
      0

(* ebpf ------------------------------------------------------------------- *)

let ebpf packets =
  Fmt.pr "== the safe-extension mechanism the paper contrasts with module replacement ==@.";
  (* 1. A loop does not load. *)
  (match Kebpf.Vm.load Kebpf.Attach.looping_program with
  | Ok _ -> Fmt.pr "loop accepted?!@."
  | Error r -> Fmt.pr "loop rejected by the verifier: %a@." Kebpf.Verifier.pp_rejection r);
  (* 2. A packet filter runs over hostile traffic without harming the kernel. *)
  let filter =
    match Kebpf.Attach.attach_filter (Kebpf.Attach.packet_kind_filter ~kind:1 ~min_len:4) with
    | Ok f -> f
    | Error _ -> assert false
  in
  let rng = Ksim.Rng.of_int 7 in
  for _ = 1 to packets do
    let len = Ksim.Rng.int rng 12 in
    let packet = Bytes.to_string (Ksim.Rng.bytes rng len) in
    ignore (Kebpf.Attach.filter_packet filter packet)
  done;
  let accepted, dropped, traps = Kebpf.Attach.filter_stats filter in
  Fmt.pr "filtered %d random packets: %d accepted, %d dropped, %d traps (all contained)@."
    packets accepted dropped traps;
  (* 3. An op tracer over a kernel workload. *)
  let tracer =
    match Kebpf.Attach.attach_tracer Kebpf.Attach.opcode_tracer with
    | Ok t -> t
    | Error _ -> assert false
  in
  let trace = Kfs.Workload.generate ~seed:4 Kfs.Workload.Mixed ~ops:2_000 in
  List.iter (Kebpf.Attach.trace_op tracer) trace;
  let buckets = Kebpf.Attach.bucket_counts tracer in
  Fmt.pr "traced a 2000-op workload by opcode:@.";
  Array.iteri (fun i n -> if n > 0 then Fmt.pr "  opcode %2d: %4d ops@." i n) buckets;
  0

(* supervise ---------------------------------------------------------------- *)

(* The microreboot walkthrough: a supervised memfs mount is driven
   through a contained oops, the EINTR quiesce window, a microreboot
   that strands a pre-oops fd at the dead epoch, and finally a panic
   storm that exhausts the restart budget into degraded reads-only
   mode.  Everything runs on the simulated clock, so the printout is
   identical on every run. *)
let supervise () =
  let p = Kspec.Fs_spec.path_of_string in
  let fp = Ksim.Failpoint.create ~seed:3 () in
  let stats = Ksim.Kstats.create () in
  let make () = Kvfs.Iface.panicky ~fp (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) in
  let vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount vfs ~at:[] ~remake:make ~stats (make ()) with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "mount: %s@." (Ksim.Errno.to_string e);
      exit 2);
  let fops = Kvfs.File_ops.create vfs in
  let step label r = Fmt.pr "  %-44s -> %a@." label Kspec.Fs_spec.pp_result r in
  Fmt.pr "== a supervised mount: memfs behind the oops firewall ==@.";
  step "create /boot" (Kvfs.Vfs.apply vfs (Create (p "/boot")));
  step "write /boot" (Kvfs.Vfs.apply vfs (Write { file = p "/boot"; off = 0; data = "v1" }));
  let fd =
    match Kvfs.File_ops.openf fops "/boot" with
    | Ok fd -> fd
    | Error e ->
        Fmt.epr "open /boot: %s@." (Ksim.Errno.to_string e);
        exit 2
  in
  Fmt.pr "  open /boot: fd %d minted at epoch %d@." fd (Kvfs.Vfs.epoch_at vfs (p "/boot"));
  Fmt.pr "@.-- the module oopses (failpoint \"module.panic\") --@.";
  Ksim.Failpoint.configure fp "module.panic" ~enabled:true ~times:1 ();
  step "stat /boot (the oops, contained)" (Kvfs.Vfs.apply vfs (Stat (p "/boot")));
  step "stat /boot (quiescing)" (Kvfs.Vfs.apply vfs (Stat (p "/boot")));
  step "stat /boot (microrebooted: fresh RAM fs)" (Kvfs.Vfs.apply vfs (Stat (p "/boot")));
  let recovered =
    match Kvfs.Vfs.supervisor_at vfs (p "/boot") with
    | Some sup ->
        Fmt.pr "  supervisor: %a@." Ksim.Supervisor.pp sup;
        Ksim.Supervisor.state sup = Ksim.Supervisor.Healthy && Ksim.Supervisor.epoch sup = 1
    | None -> false
  in
  Fmt.pr "@.-- stale-handle epochs --@.";
  let stale =
    match Kvfs.File_ops.read fops fd ~len:2 with
    | Error e ->
        Fmt.pr "  read fd %d (minted at epoch 0)               -> %s@." fd
          (Ksim.Errno.to_string e);
        e = Ksim.Errno.ESTALE
    | Ok data ->
        Fmt.pr "  read fd %d (minted at epoch 0)               -> %S (?!)@." fd data;
        false
  in
  (match Kvfs.File_ops.openf fops ~flags:[ Kvfs.File_ops.O_CREAT ] "/boot" with
  | Ok fd2 -> Fmt.pr "  reopen /boot: fd %d at epoch %d@." fd2 (Kvfs.Vfs.epoch_at vfs (p "/boot"))
  | Error e -> Fmt.pr "  reopen /boot failed: %s@." (Ksim.Errno.to_string e));
  Fmt.pr "@.-- a panic storm exhausts the restart budget --@.";
  (* One of the three budgeted restarts is already spent on the first
     act, so three more panics tip the supervisor into Failed. *)
  Ksim.Failpoint.configure fp "module.panic" ~enabled:true ~times:3 ();
  for i = 1 to 64 do
    match Kvfs.Vfs.apply vfs (Write { file = p "/spin"; off = 0; data = string_of_int i }) with
    | Ok _ | Error _ -> ()
  done;
  let failed =
    match Kvfs.Vfs.supervisor_at vfs (p "/spin") with
    | Some sup ->
        Fmt.pr "  supervisor: %a@." Ksim.Supervisor.pp sup;
        Ksim.Supervisor.state sup = Ksim.Supervisor.Failed
    | None -> false
  in
  step "readdir / (degraded: reads-only)" (Kvfs.Vfs.apply vfs (Readdir (p "/")));
  step "create /nope (degraded: mutation)" (Kvfs.Vfs.apply vfs (Create (p "/nope")));
  Fmt.pr "@.counters:@.";
  List.iter
    (fun (k, v) -> Fmt.pr "  %-32s %d@." k v)
    (List.sort compare (Ksim.Kstats.snapshot stats));
  Fmt.pr "@.incidents audited: %d@." (List.length (Safeos_core.Audit.incidents ()));
  if recovered && stale && failed then 0 else 1

(* Wall time, words allocated (minor + major - promoted) and the peak
   major heap around one run, for the text-mode [wall:] lines. *)
type cost = { wall_s : float; words : float; top_heap_mb : float }

let measured f =
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let words =
    g1.Gc.minor_words -. g0.Gc.minor_words +. (g1.Gc.major_words -. g0.Gc.major_words)
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
  in
  let top_heap_mb = float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. in
  (r, { wall_s; words; top_heap_mb })

let pp_heap ~per ~n ppf c =
  Fmt.pf ppf "peak heap %.1f MB, %.0f words/%s" c.top_heap_mb
    (if n > 0 then c.words /. float_of_int n else 0.)
    per

(* load --------------------------------------------------------------------- *)

(* The multi-tenant load harness: thousands of tenant processes over the
   supervised stack, a failpoint storm mid-run, the recovery SLO as the
   exit code.  Everything is on the simulated clock, so the same seed
   reproduces the same report byte for byte. *)
let load tenants ops storm_name seed spec_dsl json out =
  let storm =
    match Kload.Harness.storm_of_string storm_name with
    | Some s -> s
    | None ->
        Fmt.epr "safeos load: unknown storm %S (known: %s)@." storm_name
          (String.concat ", " (List.map Kload.Harness.storm_name Kload.Harness.all_storms));
        exit 2
  in
  let spec =
    match spec_dsl with
    | Some dsl -> (
        match Kload.Spec.of_string dsl with
        | Ok s -> s
        | Error msg ->
            Fmt.epr "safeos load: bad spec %S: %s@." dsl msg;
            exit 2)
    | None -> { Kload.Spec.default with Kload.Spec.tenants; ops_per_tenant = ops }
  in
  let { Kload.Harness.report; crashed_tenants; _ }, cost =
    measured (fun () -> Kload.Harness.run ~spec ~storm ~seed ())
  in
  let dt = cost.wall_s and executed = report.Kload.Report.executed in
  if json then Fmt.pr "%s@." (Kload.Report.to_json_string report)
  else begin
    Fmt.pr "%a@." Kload.Report.pp report;
    Fmt.pr "wall: %.3f s (%.0f ops/s real), %a@." dt
      (if dt > 0. then float_of_int executed /. dt else 0.)
      (pp_heap ~per:"op" ~n:executed) cost
  end;
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Kload.Report.to_json_string report);
      output_string oc "\n";
      close_out oc;
      Fmt.pr "report written to %s@." path
  | None -> ());
  let verdict = Kload.Slo.evaluate report in
  Fmt.pr "%a@." Kload.Slo.pp_verdict verdict;
  if crashed_tenants > 0 then Fmt.pr "UNCONTAINED: %d tenant(s) crashed@." crashed_tenants;
  if verdict.Kload.Slo.passed && crashed_tenants = 0 then 0 else 1

(* refine ----------------------------------------------------------------- *)

(* Drive the registered kharness machines (journalfs-as-IOSystem, cowfs,
   the supervised microreboot path) through a kload-recorded trace,
   checking invariant + refinement at every step and enumerating crash
   images.  The coverage file this writes is what klint's
   --refine-coverage ratchet consumes, so "verified" stays an executable
   claim. *)
let refine harnesses all_h trace_path seed images ops crash_every json out coverage_out =
  let entries =
    if all_h || harnesses = [] then Kharness.all ()
    else
      List.map
        (fun name ->
          match Kharness.find name with
          | Some e -> e
          | None ->
              Fmt.epr "safeos refine: unknown harness %S (known: %s)@." name
                (String.concat ", " (List.map (fun e -> e.Kharness.hname) (Kharness.all ())));
              exit 2)
        harnesses
  in
  let trace =
    match trace_path with
    | Some path -> (
        match Kload.Trace.load ~path with
        | Ok t -> t
        | Error msg ->
            Fmt.epr "safeos refine: bad trace %s: %s@." path msg;
            exit 2)
    | None -> Kharness.recorded_trace ~target_ops:ops ~seed ()
  in
  Fmt.pr "refine: %d ops (%s), seed %d, %d crash images per point, crash every %d op(s)@."
    (List.length trace)
    (match trace_path with Some p -> p | None -> "kload-recorded")
    seed images crash_every;
  let config =
    {
      Kspec.Krefine.default_config with
      Kspec.Krefine.seed;
      images_per_op = images;
      crash_every;
    }
  in
  let results, cost =
    measured (fun () -> List.map (fun (e : Kharness.entry) -> (e, Kharness.run ~config e trace)) entries)
  in
  let rows =
    List.map
      (fun ((e : Kharness.entry), (cov : Kspec.Krefine.coverage)) ->
        {
          Klint.Kverify.cov_harness = e.Kharness.hname;
          cov_subsystem = e.Kharness.subsystem;
          cov_ops = cov.Kspec.Krefine.ops;
          cov_states = cov.Kspec.Krefine.states_explored;
          cov_crash_points = cov.Kspec.Krefine.crash_points;
          cov_crash_images = cov.Kspec.Krefine.crash_images;
          cov_skipped = cov.Kspec.Krefine.skipped_images;
          cov_divergences = List.length cov.Kspec.Krefine.divergences;
          cov_deepest = cov.Kspec.Krefine.deepest_divergence;
          cov_fingerprint = Kspec.Krefine.coverage_fingerprint cov;
        })
      results
  in
  let row_json (r : Klint.Kverify.coverage_row) =
    Printf.sprintf
      "{\"harness\": \"%s\", \"subsystem\": \"%s\", \"ops\": %d, \"states\": %d, \
       \"crash_points\": %d, \"crash_images\": %d, \"skipped\": %d, \"divergences\": %d, \
       \"deepest\": %d, \"fingerprint\": \"%s\"}"
      r.Klint.Kverify.cov_harness r.Klint.Kverify.cov_subsystem r.Klint.Kverify.cov_ops
      r.Klint.Kverify.cov_states r.Klint.Kverify.cov_crash_points
      r.Klint.Kverify.cov_crash_images r.Klint.Kverify.cov_skipped
      r.Klint.Kverify.cov_divergences r.Klint.Kverify.cov_deepest
      r.Klint.Kverify.cov_fingerprint
  in
  let json_doc = "[" ^ String.concat ", " (List.map row_json rows) ^ "]" in
  if json then Fmt.pr "%s@." json_doc
  else
    List.iter
      (fun ((_ : Kharness.entry), cov) ->
        Fmt.pr "  %a@." Kspec.Krefine.pp_coverage cov;
        List.iter
          (fun d -> Fmt.pr "    %a@." Kspec.Krefine.pp_divergence d)
          cov.Kspec.Krefine.divergences)
      results;
  if json then Fmt.pr "wall: %.3f s@." cost.wall_s
  else
    Fmt.pr "wall: %.3f s, %a@." cost.wall_s
      (pp_heap ~per:"state"
         ~n:(List.fold_left (fun acc (_, cov) -> acc + cov.Kspec.Krefine.states_explored) 0 results))
      cost;
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc (json_doc ^ "\n");
      close_out oc;
      Fmt.pr "results written to %s@." path
  | None -> ());
  (match coverage_out with
  | Some path ->
      Klint.Kverify.save_coverage path rows;
      Fmt.pr "coverage written to %s@." path
  | None -> ());
  let diverged =
    List.filter (fun (_, cov) -> not (Kspec.Krefine.is_clean cov)) results
  in
  List.iter
    (fun ((e : Kharness.entry), _) ->
      Fmt.epr "REFINEMENT FAILURE: harness %s diverged from Fs_spec@." e.Kharness.hname)
    diverged;
  if diverged = [] then 0 else 1

(* audit ------------------------------------------------------------------ *)

let audit () =
  let r = boot_registry () in
  Fmt.pr "%a@.@." Safeos_core.Registry.pp r;
  Safeos_core.Audit.render_progress std (Safeos_core.Audit.progress r);
  Format.pp_print_flush std ();
  0

(* cmdliner glue ------------------------------------------------------------ *)

open Cmdliner

let figures_cmd =
  let which =
    Arg.(value & opt string "all" & info [ "fig" ] ~docv:"FIG" ~doc:"1, 2a, 2b, 2c, cwe, matrix, or all")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures and tables")
    Term.(const (fun w -> figures w; 0) $ which)

let migrate_cmd =
  let ops =
    Arg.(value & opt int 400 & info [ "validation-ops" ] ~docv:"N" ~doc:"trace length used to validate each step")
  in
  Cmd.v
    (Cmd.info "migrate" ~doc:"Run the incremental memfs migration (unsafe -> verified)")
    Term.(const migrate $ ops)

let crash_cmd =
  let mode =
    Arg.(value & opt string "both" & info [ "mode" ] ~docv:"MODE" ~doc:"journaled, group, direct, or all")
  in
  let ops = Arg.(value & opt int 25 & info [ "ops" ] ~docv:"N" ~doc:"trace length") in
  let images =
    Arg.(value & opt int 16 & info [ "images" ] ~docv:"N" ~doc:"crash images explored per crash point")
  in
  Cmd.v
    (Cmd.info "crash-test" ~doc:"Check crash safety against the crash-safe specification")
    Term.(const crash_test $ mode $ ops $ images)

let inject_cmd =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print per-cell details") in
  Cmd.v
    (Cmd.info "inject" ~doc:"Run the fault-injection matrix across roadmap stages")
    Term.(const inject $ verbose)

let workload_cmd =
  let fs = Arg.(value & opt string "memfs_typed" & info [ "fs" ] ~docv:"FS") in
  let profile = Arg.(value & opt string "mixed" & info [ "profile" ] ~docv:"PROFILE") in
  let ops = Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  Cmd.v
    (Cmd.info "workload" ~doc:"Replay a generated workload against a file system")
    Term.(const workload $ fs $ profile $ ops $ seed)

let ebpf_cmd =
  let packets = Arg.(value & opt int 1000 & info [ "packets" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "ebpf" ~doc:"Demonstrate the verified extension VM (loads, filters, traces)")
    Term.(const ebpf $ packets)

let load_cmd =
  let tenants =
    Arg.(value & opt int Kload.Spec.default.Kload.Spec.tenants
         & info [ "tenants" ] ~docv:"N" ~doc:"simulated tenant processes")
  in
  let ops =
    Arg.(value & opt int Kload.Spec.default.Kload.Spec.ops_per_tenant
         & info [ "ops" ] ~docv:"N" ~doc:"operations per tenant")
  in
  let storm =
    Arg.(value & opt string "mixed"
         & info [ "storm" ] ~docv:"STORM"
             ~doc:"none, panic-wave, eio-wave, sock-storm, cache-wave, or mixed")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let spec =
    Arg.(value & opt (some string) None
         & info [ "spec" ] ~docv:"DSL"
             ~doc:"full workload spec, e.g. \
                   'tenants=1000; ops=8; classes=rpc:3:net=8,meta=1' (overrides \
                   $(b,--tenants)/$(b,--ops))")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"print the report as JSON") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"also write the JSON report to $(docv)")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Run the multi-tenant load harness with a failpoint storm and gate on the SLO")
    Term.(const load $ tenants $ ops $ storm $ seed $ spec $ json $ out)

let supervise_cmd =
  Cmd.v
    (Cmd.info "supervise"
       ~doc:"Demonstrate oops containment, microreboot, and stale-handle epochs")
    Term.(const supervise $ const ())

let audit_cmd =
  Cmd.v
    (Cmd.info "audit" ~doc:"Show the component registry and safety progress")
    Term.(const audit $ const ())

(* explain ------------------------------------------------------------- *)

(* One paragraph per klint rule: what fires, why the ladder forbids it at
   the rung it names, and what the fix usually looks like. *)
let rule_explanation : Klint.Finding.rule -> string = function
  | Klint.Finding.R1_unchecked_cast ->
      "An Obj.magic / unchecked cast: the value's runtime type is asserted, not \
       proven.  Forbidden from Type_safe up — replace with a typed constructor, a \
       variant, or Dyn's checked casts."
  | Klint.Finding.R2_unchecked_errptr ->
      "A value that may encode an error (Linux's ERR_PTR idiom) is dereferenced \
       without checking.  Match on the result (Ok/Error) before use."
  | Klint.Finding.R3_lock_balance ->
      "A function acquires and releases unbalanced lock counts on some path, and \
       its annotation (@acquires/@releases) does not declare that on purpose."
  | Klint.Finding.R4_ownership_bypass ->
      "Raw Bytes.unsafe_* access bypasses both bounds and ownership checks — the \
       escape hatch the ownership rung exists to remove."
  | Klint.Finding.R5_must_check ->
      "A result carrying an error is silently dropped (ignore/discard).  Handle \
       the Error arm or thread it out."
  | Klint.Finding.R6_lockset_race ->
      "A cell guarded by a lock (Klock.Guarded) is reached while the \
       interprocedural lockset provably cannot contain the guard, or a call site \
       violates a callee's @must_hold contract."
  | Klint.Finding.R7_lock_annotation ->
      "A lock annotation and the function body disagree — the contract says one \
       thing, the walk observes another.  Fix whichever is wrong."
  | Klint.Finding.R8_use_after_free ->
      "kown (the ownership-lifetime analysis) found a path on which a freed or \
       consumed allocation is read, written, lent, or stored: the static form of \
       Kmem's Use_after_free event (CWE-416).  Ownership states are tracked per \
       binding (Owned -> Freed/Moved) through branch joins and across calls via \
       per-function summaries and @consumes annotations.  Fix by reordering the \
       free to after the last use, or transferring ownership explicitly \
       (Checker.transfer) so the new owner frees."
  | Klint.Finding.R9_double_free ->
      "kown found a path on which an allocation already Freed (or Moved into a \
       consuming callee, per summary or @consumes) reaches Kmem.free / \
       Checker.free again — the static form of Kmem's Double_free event \
       (CWE-415).  Exactly one owner must free; make the other path borrow \
       (@borrows) or drop its free."
  | Klint.Finding.R10_error_leak ->
      "An owned allocation is still live, unescaped, when the function \
       constructs an Error return — the allocate-then-fail-then-forget shape \
       (CWE-401) — or one branch of an if/else frees what its sibling, running \
       the same teardown, forgets.  Free or transfer before returning the \
       error; tx-style APIs want an explicit abort on the failure arm."
  | Klint.Finding.R11_borrow_escape ->
      "A capability lent via Checker.lend_shared/lend_exclusive escapes its lend \
       scope (stored in a structure or returned from the closure), is freed \
       while only borrowed, or a revoked capability is used (CWE-416).  Borrows \
       must stay inside the ~f closure; take ownership via Checker.transfer if \
       the value must outlive the lend."
  | Klint.Finding.R12_unsafe_primitive ->
      "ktcb (the frame-confinement pass) found a direct use of the raw substrate \
       — Dyn.*, Kmem alloc/free, Bytes.unsafe_*, or bare Klock.acquire/release — \
       outside the declared lib/ksim frame: unsafe-TCB bloat (CWE-1120).  \
       Services reach the substrate only through the audited Ksim.Frame wrappers \
       (Priv slots, Handle decoding, Buf.freeze, Cell.peek); migrate the call \
       site or, for an intentional specimen, grandfather it in tcb.baseline."
  | Klint.Finding.R13_frame_bypass ->
      "A call resolves, over the whole-tree call graph, to a frame symbol that \
       is not on the blessed .mli surface — or to a non-frame helper that \
       transitively launders one, the depth->=2 pattern a per-site grep misses \
       (CWE-653).  Route the operation through Ksim.Frame, or bless the symbol \
       if it genuinely belongs on the audited boundary."
  | Klint.Finding.R14_unsound_export ->
      "A frame function returns a fresh owned raw capability (per kown's \
       ownership summaries) to at least one non-frame caller: the resource \
       crosses the boundary unwrapped (CWE-668) and the service inherits an \
       ownership obligation the frame never priced.  Return it wrapped in a \
       Frame handle, or keep the allocation inside the frame."
  | Klint.Finding.R15_unverified_claim ->
      "A subsystem registers at the Verified rung but no krefine harness \
       covers it: the functional claim is documentation, not a checked \
       artifact (CWE-1059).  Register a machine for it with \
       Kharness.harness ~name ~subsystem (run via `safeos refine`), or \
       lower the registry level until one exists.  Unlike R1-R11 this \
       rule cannot be baselined: 'verified means checked' is the point."
  | Klint.Finding.R16_unordered_write ->
      "kdur (the barrier-discipline analysis) found a device write whose input \
       derives from a still-volatile earlier write, with no flush or FUA between \
       them on some path (CWE-662).  Under a volatile write-back cache the two \
       writes may reach media in either order, so a crash can persist the \
       dependent write without its antecedent — the static twin of the \
       Wcache.audit runtime violation.  Insert an Io.flush (or write the \
       antecedent with write_fua) before the dependent write, or annotate the \
       helper that performs the barrier with @flushes."
  | Klint.Finding.R17_ack_before_durable ->
      "A function contracted @durable has a path that returns Ok while writes \
       it issued (or its callees issued, per summary) are still volatile in the \
       cache: the ack races the media (CWE-392).  This is the missing-barrier \
       journal mutant's signature — the commit record is acked with the flush \
       elided.  End every Ok path with Io.flush / write_fua, or drop the \
       @durable claim if the caller genuinely owns the barrier (then \
       @orders_after names the handle the obligation rides on)."
  | Klint.Finding.R18_barrier_elision ->
      "A supervision/retry wrapper forwards to a callee whose summary requires \
       a barrier (it writes and expects its caller to flush, or is contracted \
       @durable), but the wrapper neither performs the flush nor re-exports the \
       obligation with @orders_after/@flushes (CWE-573): the flush \
       responsibility is silently dropped at the boundary, so every caller \
       above believes the write path is durable.  Either flush in the wrapper \
       or annotate it so the contract keeps travelling."

(* One paragraph per storm-preset failpoint site: what the fault models
   and which machinery is supposed to absorb it.  [safeos explain
   wcache.flush-dropped] answers the question the storm report raises. *)
let site_explanations =
  [
    ( "flaky.read-eio",
      "Flakydev fails the read with a transient EIO.  Absorbed by the Resilient \
       retry layer (bounded attempts, jittered backoff); a failure that outlives \
       the retries aborts the FS operation cleanly." );
    ( "flaky.write-eio",
      "Flakydev fails the write with a transient EIO before anything lands.  Same \
       retry contract as read-eio; a persistent failure flips journalfs into \
       errors=remount-ro degraded mode." );
    ( "flaky.torn-write",
      "Flakydev lands only a prefix of the block, then reports EIO — the classic \
       interrupted sector write.  The journal's checksummed records make a torn \
       record detectable and ignorable at recovery.  During a down-window the base \
       write itself fails, so nothing lands: counted separately as torn_skipped, \
       not as a torn write." );
    ( "svc.panic",
      "A module panic injected in the /svc filesystem.  Contained to EIO by the \
       supervised mount, which microreboots the instance (RAM loss is legal \
       there)." );
    ( "dur.panic",
      "A module panic injected in the /dur journalfs.  Contained to EIO; the \
       supervisor microreboots via drain-cache + journal-replay remount, and \
       acked writes must survive (the SLO gate checks)." );
    ( "sock.panic",
      "A panic in the socket layer.  The supervised socket microreboots with a \
       fresh generation; stale handles are rejected with ESTALE and re-minted by \
       the caller retry loop." );
    ( "wcache.flush-dropped",
      "The write-back cache acks flush without draining or closing the barrier \
       epoch — a lying drive.  Acked-but-unflushed data stays volatile, so a \
       crash can lose it; with honest barriers above (journalfs keeps its \
       commit-record and checkpoint flushes) the durability audit still sees \
       zero lost acked writes, because every ack the FS reports durable was \
       re-flushed until a flush really completed or never acked at all." );
    ( "wcache.writeback-reorder",
      "Capacity eviction destages a seeded random victim instead of the oldest \
       dirty block, so writes reach media out of order within a barrier epoch.  \
       Legal under the volatile-cache contract — only code that relies on \
       unflushed ordering breaks, which is exactly what Wcache.audit flags." );
  ]

let explain ids =
  let is_site id = List.mem_assoc id site_explanations in
  let rules =
    match ids with
    | [] -> Klint.Finding.all_rules
    | ids ->
        List.filter_map
          (fun id ->
            if is_site id then None
            else
              match Klint.Finding.rule_of_id (String.uppercase_ascii id) with
              | Some r -> Some r
              | None ->
                  Fmt.epr
                    "safeos explain: unknown rule or failpoint site %S (known: \
                     R1..R18, %s)@."
                    id
                    (String.concat ", " (List.map fst site_explanations));
                  exit 2)
          ids
  in
  let sites =
    match ids with
    | [] -> site_explanations
    | ids -> List.filter (fun (s, _) -> List.mem s ids) site_explanations
  in
  List.iter
    (fun r ->
      Fmt.pr "%s %s (CWE-%d, %s):@.  @[%a@]@.@."
        (Klint.Finding.rule_id r) (Klint.Finding.rule_name r) (Klint.Finding.cwe_id r)
        (Safeos_core.Level.bug_class_to_string (Klint.Finding.bug_class r))
        Fmt.text (rule_explanation r))
    rules;
  List.iter
    (fun (s, text) -> Fmt.pr "%s (failpoint site):@.  @[%a@]@.@." s Fmt.text text)
    sites;
  0

(* tcb -------------------------------------------------------------------- *)

(* The per-subsystem unsafe-TCB table the framekernel refactor ratchets:
   full frame LOC plus distinct R12/R13 lines outside it, over total
   effective LOC.  [--json] prints the same [tcb] object the klint
   report persists. *)
let tcb json =
  match Klint.find_root () with
  | None ->
      Fmt.epr "safeos tcb: cannot find dune-project above %s@." (Sys.getcwd ());
      2
  | Some root ->
      let t = Klint.Ktcb.analyze_tree ~root in
      if t.Klint.Ktcb.parse_errors <> [] then begin
        List.iter
          (fun (file, msg) -> Fmt.epr "safeos tcb: parse error in %s:@.%s@." file msg)
          t.Klint.Ktcb.parse_errors;
        2
      end
      else if json then begin
        Fmt.pr "%s@." (Klint.Report.tcb_json t);
        0
      end
      else begin
        Fmt.pr "unsafe TCB: %d / %d effective lines (%.1f%%), frame surface %d vals@."
          t.Klint.Ktcb.unsafe_loc t.Klint.Ktcb.total_loc (Klint.Ktcb.ratio t)
          t.Klint.Ktcb.surface_vals;
        Fmt.pr "frame: %d files, %d lines (lib/ksim)@.@." t.Klint.Ktcb.frame_files
          t.Klint.Ktcb.frame_loc;
        Fmt.pr "%-16s %8s %8s %7s %7s %9s  %s@." "subsystem" "loc" "unsafe" "ratio"
          "direct" "indirect" "kind";
        List.iter
          (fun (r : Klint.Ktcb.row) ->
            Fmt.pr "%-16s %8d %8d %6.1f%% %7d %9d  %s@." r.Klint.Ktcb.sub r.Klint.Ktcb.loc
              r.Klint.Ktcb.unsafe_loc
              (if r.Klint.Ktcb.loc = 0 then 0.0
               else
                 100.0
                 *. float_of_int r.Klint.Ktcb.unsafe_loc
                 /. float_of_int r.Klint.Ktcb.loc)
              r.Klint.Ktcb.direct r.Klint.Ktcb.indirect
              (if r.Klint.Ktcb.in_frame then "frame"
               else if r.Klint.Ktcb.exhibit then "exhibit"
               else if r.Klint.Ktcb.unsafe_loc = 0 then "clean"
               else "unsafe"))
          t.Klint.Ktcb.rows;
        0
      end

let tcb_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"print the tcb report object as JSON") in
  Cmd.v
    (Cmd.info "tcb"
       ~doc:"Show the per-subsystem unsafe-TCB table the framekernel ratchet enforces")
    Term.(const tcb $ json)

let refine_cmd =
  let harnesses =
    Arg.(value & opt_all string []
         & info [ "harness" ] ~docv:"NAME"
             ~doc:"Harness to run (repeatable); all registered harnesses when omitted")
  in
  let all_h =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Run every registered harness (the default)")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Replay a saved kload trace instead of recording one")
  in
  let seed =
    Arg.(value & opt int 11
         & info [ "seed" ] ~docv:"N"
             ~doc:"Seed for trace recording and crash-image enumeration")
  in
  let images =
    Arg.(value & opt int 4
         & info [ "images" ] ~docv:"N" ~doc:"Crash images enumerated per crash point")
  in
  let ops =
    Arg.(value & opt int 10_000
         & info [ "ops" ] ~docv:"N"
             ~doc:"Target length of the recorded trace (ignored with --trace)")
  in
  let crash_every =
    Arg.(value & opt int 1
         & info [ "crash-every" ] ~docv:"N"
             ~doc:"Enumerate crash images every Nth op (0 disables crash checking); \
                   the default checks every op")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"print coverage rows as JSON") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"also write the JSON results to FILE")
  in
  let coverage_out =
    Arg.(value & opt (some string) None
         & info [ "coverage-out" ] ~docv:"FILE"
             ~doc:"write coverage rows for klint's --refine-coverage ratchet")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Check the registered krefine harnesses against Fs_spec over a recorded trace")
    Term.(const refine $ harnesses $ all_h $ trace $ seed $ images $ ops $ crash_every
          $ json $ out $ coverage_out)

let explain_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"RULE"
           ~doc:"Rule identifiers (R1..R18); all rules when omitted")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain klint rules and failpoint sites: what fires, why, and the usual \
          fix")
    Term.(const explain $ ids)

let main =
  Cmd.group
    (Cmd.info "safeos" ~version:"1.0.0"
       ~doc:"An incremental path towards a safer OS kernel — simulator and experiments")
    [
      figures_cmd;
      migrate_cmd;
      crash_cmd;
      inject_cmd;
      workload_cmd;
      ebpf_cmd;
      load_cmd;
      supervise_cmd;
      audit_cmd;
      refine_cmd;
      explain_cmd;
      tcb_cmd;
    ]

let () = exit (Cmd.eval' main)
