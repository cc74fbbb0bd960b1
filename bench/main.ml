(* The benchmark harness: regenerates every table and figure of the paper
   (printed first, computed from the record-level data), then times the
   microbenchmarks behind the paper's performance claims:

     modularity/*  cost of calling through the modular interface (step 1)
     typesafety/*  void*-dispatch vs typed dispatch (step 2)
     ownership/*   the three sharing models vs copying message passing (§4.3)
     roadmap/*     the same workload at every safety stage (steps 0-4)
     journal/*     journaling vs in-place writes, and batching (§4.4)
     ablation/*    each checker's overhead, switchable off

   Absolute numbers are simulator numbers; the claims under test are the
   *shapes*: modular dispatch is cheap, sharing models stay flat while
   copying grows with payload size, safety stages cost a small constant
   factor, journaling pays a bounded write amplification. *)

open Bechamel

let std = Format.std_formatter

(* Running and printing ------------------------------------------------- *)

let run_group name tests =
  let grouped = Test.make_grouped ~name tests in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun test_name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (estimate :: _) -> estimate
          | Some [] | None -> nan
        in
        (test_name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "@.%s@." (String.make 64 '-');
  List.iter (fun (test_name, ns) -> Fmt.pr "%-44s %12.0f ns/op@." test_name ns) rows;
  rows

let staged f = Staged.stage f

(* BENCH-MOD: modular interface vs direct call --------------------------- *)

let bench_modularity () =
  let p = Kspec.Fs_spec.path_of_string in
  let direct_fs = Kfs.Memfs_typed.mkfs () in
  ignore (Kfs.Memfs_typed.apply direct_fs (Kspec.Fs_spec.Create (p "/f")));
  let inst = Kvfs.Iface.make (module Kfs.Memfs_typed) () in
  ignore (Kvfs.Iface.instance_apply inst (Kspec.Fs_spec.Create (p "/f")));
  let vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (Kvfs.Vfs.apply vfs (Kspec.Fs_spec.Create (p "/f")));
  let stat = Kspec.Fs_spec.Stat (p "/f") in
  run_group "modularity"
    [
      Test.make ~name:"direct-call" (staged (fun () -> Kfs.Memfs_typed.apply direct_fs stat));
      Test.make ~name:"modular-interface" (staged (fun () -> Kvfs.Iface.instance_apply inst stat));
      Test.make ~name:"vfs-mount-table" (staged (fun () -> Kvfs.Vfs.apply vfs stat));
    ]

(* BENCH-TYPE: void* dispatch vs typed dispatch --------------------------- *)

let bench_typesafety () =
  let dyn_sock =
    match Knet.Sock.Dyn_style.socket "dgram" with Ok s -> s | Error _ -> assert false
  in
  let typed_pair =
    match Knet.Sock.Typed.socket_pair "dgram" with Ok pr -> pr | Error _ -> assert false
  in
  let key : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"bench.int" in
  let dyn_value = Ksim.Dyn.inject key 42 in
  let typed_amp = Knet.Amp.Typed.create () in
  Knet.Amp.Typed.register typed_amp ~channel:2 Knet.Amp.Data;
  let unsafe_amp = Knet.Amp.Unsafe.create () in
  Knet.Amp.Unsafe.register unsafe_amp ~channel:2 Knet.Amp.Data;
  let packet = Knet.Amp.encode_data ~channel:2 { Knet.Amp.body = "payload-bytes" } in
  run_group "typesafety"
    [
      Test.make ~name:"dyn-cast" (staged (fun () -> Ksim.Dyn.cast_exn key dyn_value));
      Test.make ~name:"dyn-socket-status"
        (staged (fun () -> Knet.Sock.Dyn_style.is_connected dyn_sock));
      Test.make ~name:"typed-socket-status"
        (staged (fun () -> Knet.Sock.Typed.is_connected typed_pair));
      Test.make ~name:"amp-unsafe-receive"
        (staged (fun () -> Knet.Amp.Unsafe.receive unsafe_amp packet));
      Test.make ~name:"amp-typed-receive"
        (staged (fun () -> Knet.Amp.Typed.receive typed_amp packet));
    ]

(* BENCH-OWN: the three sharing models vs copying ------------------------- *)

let bench_ownership () =
  let sizes = [ 64; 1024; 16384; 65536 ] in
  let tests =
    List.concat_map
      (fun size ->
        let ck = Ownership.Checker.create ~strict:true () in
        let cap = Ownership.Checker.alloc ck ~holder:"caller" ~size in
        let ch = Ownership.Message.create () in
        let payload = Bytes.make size 'p' in
        let one = Bytes.make 1 'x' in
        [
          Test.make
            ~name:(Printf.sprintf "share-exclusive-%db" size)
            (staged (fun () ->
                 Ownership.Checker.lend_exclusive ck cap ~to_:"callee" ~f:(fun b ->
                     Ownership.Checker.write ck b ~off:0 one)));
          Test.make
            ~name:(Printf.sprintf "share-shared-%db" size)
            (staged (fun () ->
                 Ownership.Checker.lend_shared ck cap ~to_:[ "callee" ] ~f:(fun borrowed ->
                     match borrowed with
                     | [ b ] -> ignore (Ownership.Checker.read ck b ~off:0 ~len:1)
                     | _ -> assert false)));
          Test.make
            ~name:(Printf.sprintf "transfer-cycle-%db" size)
            (staged (fun () ->
                 let c = Ownership.Checker.alloc ck ~holder:"caller" ~size in
                 let c' = Ownership.Checker.transfer ck c ~to_:"callee" in
                 Ownership.Checker.free ck c'));
          Test.make
            ~name:(Printf.sprintf "message-copy-%db" size)
            (staged (fun () -> ignore (Ownership.Message.call ch payload ~f:(fun req -> req))));
        ])
      sizes
  in
  run_group "ownership" tests

(* BENCH-STEPS: one workload, every safety stage --------------------------- *)

let bench_roadmap () =
  let trace = Kfs.Workload.generate ~seed:5 Kfs.Workload.Mixed ~ops:200 in
  let replay (module F : Kvfs.Iface.FS_OPS) () =
    let fs = F.mkfs () in
    List.iter (fun op -> ignore (F.apply fs op)) trace
  in
  run_group "roadmap"
    [
      Test.make ~name:"stage0-unsafe-200ops" (staged (replay (module Kfs.Memfs_unsafe.Modular)));
      Test.make ~name:"stage2-typed-200ops" (staged (replay (module Kfs.Memfs_typed)));
      Test.make ~name:"stage3-owned-200ops" (staged (replay (module Kfs.Memfs_owned)));
      Test.make ~name:"stage4-verified-200ops" (staged (replay (module Kfs.Memfs_verified)));
    ]

(* BENCH-JOURNAL: journaled vs direct, and fsync batching ------------------- *)

let bench_journal () =
  let p = Kspec.Fs_spec.path_of_string in
  let data = String.make 256 'j' in
  let fs_cycle ?(group_commit = false) mode ~ops_per_fsync () =
    let fs =
      Kfs.Journalfs.mkfs_on ~group_commit mode
        (Kblock.Blockdev.create ~nblocks:1024 ~block_size:512)
    in
    ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Create (p "/f")));
    for i = 0 to 19 do
      ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Write { file = p "/f"; off = 0; data }));
      if (i + 1) mod ops_per_fsync = 0 then ignore (Kfs.Journalfs.apply fs Kspec.Fs_spec.Fsync)
    done
  in
  run_group "journal"
    [
      Test.make ~name:"journaled-fsync-each"
        (staged (fs_cycle Kfs.Journalfs.Journaled ~ops_per_fsync:1));
      Test.make ~name:"journaled-fsync-per5"
        (staged (fs_cycle Kfs.Journalfs.Journaled ~ops_per_fsync:5));
      Test.make ~name:"journaled-fsync-once"
        (staged (fs_cycle Kfs.Journalfs.Journaled ~ops_per_fsync:20));
      Test.make ~name:"journaled-group-fsync-once"
        (staged (fs_cycle ~group_commit:true Kfs.Journalfs.Journaled ~ops_per_fsync:20));
      Test.make ~name:"journaled-group-fsync-per5"
        (staged (fs_cycle ~group_commit:true Kfs.Journalfs.Journaled ~ops_per_fsync:5));
      Test.make ~name:"direct-fsync-each" (staged (fs_cycle Kfs.Journalfs.Direct ~ops_per_fsync:1));
      Test.make ~name:"direct-fsync-once" (staged (fs_cycle Kfs.Journalfs.Direct ~ops_per_fsync:20));
    ]

(* BENCH-RESIL: the fault-injection plumbing must be free when disabled ----- *)

let bench_resilience () =
  let p = Kspec.Fs_spec.path_of_string in
  let data = String.make 256 'r' in
  let cycle mk () =
    let dev = Kblock.Blockdev.create ~nblocks:1024 ~block_size:512 in
    let io, arm = mk dev in
    let fs = Kfs.Journalfs.mkfs_on ?io Kfs.Journalfs.Journaled dev in
    arm ();
    ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Create (p "/f")));
    for _ = 1 to 20 do
      ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Write { file = p "/f"; off = 0; data }))
    done;
    ignore (Kfs.Journalfs.apply fs Kspec.Fs_spec.Fsync)
  in
  let bare _dev = (None, fun () -> ()) in
  let stack ?(faults = false) dev =
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:1 () in
    let flaky = Kblock.Flakydev.create ~fp (Kblock.Blockdev.io dev) in
    let io = Kblock.Resilient.io (Kblock.Resilient.create ~max_attempts:6 (Kblock.Flakydev.io flaky)) in
    let arm () =
      if faults then
        Ksim.Failpoint.configure fp "flaky.write-eio" ~enabled:true ~probability:0.1 ()
    in
    (Some io, arm)
  in
  run_group "resilience"
    [
      Test.make ~name:"journalfs-write-bare" (staged (cycle bare));
      Test.make ~name:"journalfs-write-stack-disabled" (staged (cycle (stack ~faults:false)));
      Test.make ~name:"journalfs-write-stack-10pct-faults" (staged (cycle (stack ~faults:true)));
    ]

(* BENCH-SUP: the oops firewall — healthy-path overhead of the supervised
   mount, and the wall cost of a full contained-oops cycle (panic, EINTR
   drain, microreboot).  The recovery latency on the simulated clock is
   deterministic, so it is printed once as a number rather than timed. *)

let bench_supervision () =
  let p = Kspec.Fs_spec.path_of_string in
  let stat = Kspec.Fs_spec.Stat (p "/f") in
  let plain_vfs = Kvfs.Vfs.create () in
  (match Kvfs.Vfs.mount plain_vfs ~at:[] (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (Kvfs.Vfs.apply plain_vfs (Kspec.Fs_spec.Create (p "/f")));
  let sup_vfs = Kvfs.Vfs.create () in
  (match
     Kvfs.Vfs.mount sup_vfs ~at:[]
       ~remake:(fun () -> Kvfs.Iface.make (module Kfs.Memfs_typed) ())
       (Kvfs.Iface.make (module Kfs.Memfs_typed) ())
   with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (Kvfs.Vfs.apply sup_vfs (Kspec.Fs_spec.Create (p "/f")));
  (* One full contained-oops cycle.  Under the default policy the
     schedule is exact: panic -> EIO, drain -> EINTR, reboot -> op runs
     against the new generation. *)
  let reboot_cycle () =
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:1 () in
    let make () = Kvfs.Iface.panicky ~fp (Kvfs.Iface.make (module Kfs.Memfs_typed) ()) in
    let vfs = Kvfs.Vfs.create () in
    (match Kvfs.Vfs.mount vfs ~at:[] ~remake:make (make ()) with
    | Ok () -> ()
    | Error _ -> assert false);
    Ksim.Failpoint.configure fp "module.panic" ~enabled:true ~times:1 ();
    ignore (Kvfs.Vfs.apply vfs stat);
    ignore (Kvfs.Vfs.apply vfs stat);
    ignore (Kvfs.Vfs.apply vfs stat);
    vfs
  in
  (match Kvfs.Vfs.supervisor_at (reboot_cycle ()) (p "/") with
  | Some sup ->
      Fmt.pr "supervision: simulated recovery latency %d ns (oops -> healthy), epoch %d@."
        (Ksim.Supervisor.last_recovery_ns sup) (Ksim.Supervisor.epoch sup)
  | None -> assert false);
  run_group "supervision"
    [
      Test.make ~name:"vfs-stat-unsupervised" (staged (fun () -> Kvfs.Vfs.apply plain_vfs stat));
      Test.make ~name:"vfs-stat-supervised-healthy"
        (staged (fun () -> Kvfs.Vfs.apply sup_vfs stat));
      Test.make ~name:"microreboot-full-cycle" (staged (fun () -> reboot_cycle ()));
    ]

(* The extension VM: interpreted-but-verified vs native hook ---------------- *)

let bench_ebpf () =
  let filter =
    match Kebpf.Attach.attach_filter (Kebpf.Attach.packet_kind_filter ~kind:1 ~min_len:4) with
    | Ok f -> f
    | Error _ -> assert false
  in
  let native packet =
    String.length packet >= 4 && packet.[0] = '\001'
  in
  let packet = "\001payload-bytes" in
  let tracer =
    match Kebpf.Attach.attach_tracer Kebpf.Attach.opcode_tracer with
    | Ok t -> t
    | Error _ -> assert false
  in
  let op = Kspec.Fs_spec.Stat (Kspec.Fs_spec.path_of_string "/a/b") in
  run_group "ebpf"
    [
      Test.make ~name:"vm-packet-filter" (staged (fun () -> Kebpf.Attach.filter_packet filter packet));
      Test.make ~name:"native-packet-filter" (staged (fun () -> native packet));
      Test.make ~name:"vm-op-tracer" (staged (fun () -> Kebpf.Attach.trace_op tracer op));
    ]

(* The virtual-memory stack: fault, COW, fork costs -------------------------- *)

let bench_mm () =
  let page_size = 4096 in
  let fresh_space nframes =
    Kmm.Addr_space.create (Kmm.Phys.create ~nframes ~page_size)
  in
  let fault_16_pages () =
    let space = fresh_space 32 in
    match Kmm.Addr_space.mmap space ~len:(16 * page_size) ~prot:Kmm.Addr_space.prot_rw
            Kmm.Addr_space.Anon with
    | Ok addr -> ignore (Kmm.Addr_space.read space ~addr ~len:(16 * page_size))
    | Error _ -> assert false
  in
  let warm = fresh_space 32 in
  let warm_addr =
    match Kmm.Addr_space.mmap warm ~len:(4 * page_size) ~prot:Kmm.Addr_space.prot_rw
            Kmm.Addr_space.Anon with
    | Ok a -> a
    | Error _ -> assert false
  in
  ignore (Kmm.Addr_space.write warm ~addr:warm_addr (String.make 64 'w'));
  let fork_and_cow () =
    let space = fresh_space 64 in
    (match Kmm.Addr_space.mmap space ~len:(8 * page_size) ~prot:Kmm.Addr_space.prot_rw
             Kmm.Addr_space.Anon with
    | Ok addr ->
        ignore (Kmm.Addr_space.write space ~addr (String.make (8 * page_size) 'p'));
        let child = Kmm.Addr_space.fork space in
        ignore (Kmm.Addr_space.write child ~addr "c");
        Kmm.Addr_space.destroy child;
        Kmm.Addr_space.destroy space
    | Error _ -> assert false)
  in
  run_group "mm"
    [
      Test.make ~name:"demand-fault-16-pages" (staged fault_16_pages);
      Test.make ~name:"resident-read-64b"
        (staged (fun () -> Kmm.Addr_space.read warm ~addr:warm_addr ~len:64));
      Test.make ~name:"fork+cow-8-pages" (staged fork_and_cow);
    ]

(* Ablations: each checker's cost, on vs off -------------------------------- *)

let bench_ablation () =
  let trace = Kfs.Workload.generate ~seed:6 Kfs.Workload.Mixed ~ops:100 in
  let raw_impl () =
    let t = Kfs.Memfs_verified.Impl.create () in
    List.iter (fun op -> ignore (Kfs.Memfs_verified.Impl.apply t op)) trace
  in
  let monitored () =
    let fs = Kfs.Memfs_verified.mkfs () in
    List.iter (fun op -> ignore (Kfs.Memfs_verified.apply fs op)) trace
  in
  let bh_cycle ~check_states () =
    let dev = Kblock.Blockdev.create ~nblocks:64 ~block_size:256 in
    let cache = Kblock.Buffer_head.create ~check_states dev in
    for blkno = 8 to 27 do
      let bh = Kblock.Buffer_head.getblk cache blkno in
      Kblock.Buffer_head.set_data cache bh (Bytes.make 256 'b');
      ignore (Kblock.Buffer_head.submit_write cache bh);
      Kblock.Buffer_head.brelse bh
    done;
    Kblock.Blockdev.flush dev
  in
  let ck = Ownership.Checker.create ~strict:true () in
  let cap = Ownership.Checker.alloc ck ~holder:"bench" ~size:4096 in
  let bare = Bytes.create 4096 in
  let src = Bytes.make 64 'x' in
  let validation () =
    ignore
      (Safeos_core.Roadmap.validate ~ops:50 (fun () ->
           Kvfs.Iface.make (module Kfs.Memfs_typed) ()))
  in
  run_group "ablation"
    [
      Test.make ~name:"fs-raw-impl-100ops" (staged raw_impl);
      Test.make ~name:"fs-refinement-monitored-100ops" (staged monitored);
      Test.make ~name:"bufferhead-checked-20blocks" (staged (bh_cycle ~check_states:true));
      Test.make ~name:"bufferhead-unchecked-20blocks" (staged (bh_cycle ~check_states:false));
      Test.make ~name:"ownership-checked-write-64b"
        (staged (fun () -> Ownership.Checker.write ck cap ~off:0 src));
      Test.make ~name:"raw-bytes-write-64b" (staged (fun () -> Bytes.blit src 0 bare 0 64));
      Test.make ~name:"migration-validation-50ops" (staged validation);
    ]

(* BENCH-LOAD: the multi-tenant load harness.  Two things happen here:
   a bechamel timing of a small population (the harness must stay cheap
   enough to live inside CI), and one full storm run whose report is
   persisted as BENCH_6.json at the repo root — ops/sec, recovery-latency
   percentiles and the shed-load rate, the per-PR trajectory ROADMAP
   item 2 asks for. *)

let bench_kload () =
  let small =
    { Kload.Spec.default with Kload.Spec.tenants = 60; ops_per_tenant = 6 }
  in
  let rows =
    run_group "kload"
      [
        Test.make ~name:"360ops-60tenants-no-storm"
          (staged (fun () -> Kload.Harness.run ~spec:small ~seed:11 ()));
        Test.make ~name:"360ops-60tenants-panic-wave"
          (staged (fun () ->
               Kload.Harness.run ~spec:small ~storm:Kload.Harness.Panic_wave ~seed:11 ()));
      ]
  in
  (* The persisted run: default population, full mixed storm. *)
  let t0 = Sys.time () in
  let { Kload.Harness.report; _ } =
    Kload.Harness.run ~storm:Kload.Harness.Mixed ~seed:42 ()
  in
  let wall = Sys.time () -. t0 in
  let shed_rate =
    if report.Kload.Report.planned = 0 then 0.
    else float_of_int report.Kload.Report.shed /. float_of_int report.Kload.Report.planned
  in
  Fmt.pr "@.kload storm run (persisted): %a@." Kload.Report.pp report;
  let json =
    Printf.sprintf
      "{\n  \"issue\": 6,\n  \"wall_seconds\": %.4f,\n  \"wall_ops_per_sec\": %.0f,\n  \"report\": %s\n}\n"
      wall
      (if wall > 0. then float_of_int report.Kload.Report.executed /. wall else 0.)
      (Kload.Report.to_json_string report)
  in
  let path =
    match Klint.find_root () with
    | Some root -> Filename.concat root "BENCH_6.json"
    | None -> "BENCH_6.json"
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr "kload: shed rate %.3f, report written to %s@." shed_rate path;
  rows

(* BENCH-LINT: the static analyses gate every CI run, so their cost is
   part of the developer loop; keep the whole-tree pass visibly cheap. ---- *)

let bench_lint () =
  let root =
    match Klint.find_root () with
    | Some r -> r
    | None -> failwith "bench: cannot locate dune-project root"
  in
  let rows =
    run_group "lint"
      [
        Test.make ~name:"kracer-whole-tree"
          (staged (fun () -> ignore (Klint.Kracer.analyze_tree ~root)));
        Test.make ~name:"kown-whole-tree"
          (staged (fun () -> ignore (Klint.Kown.analyze_tree ~root)));
        Test.make ~name:"ktcb-whole-tree"
          (staged (fun () -> ignore (Klint.Ktcb.analyze_tree ~root)));
        Test.make ~name:"kdur-whole-tree"
          (staged (fun () -> ignore (Klint.Kdur.analyze_tree ~root)));
        Test.make ~name:"full-lint+kracer-tree"
          (staged (fun () -> ignore (Klint.Engine.lint_tree ~root)));
      ]
  in
  (* The persisted TCB snapshot: one wall-clocked whole-tree ktcb pass
     plus the metric object itself, the per-PR trajectory the ratchet
     walks downward. *)
  let t0 = Sys.time () in
  let tcb = Klint.Ktcb.analyze_tree ~root in
  let wall = Sys.time () -. t0 in
  Fmt.pr "@.ktcb (persisted): %d/%d unsafe lines (%.1f%%), frame %d files/%d lines@."
    tcb.Klint.Ktcb.unsafe_loc tcb.Klint.Ktcb.total_loc (Klint.Ktcb.ratio tcb)
    tcb.Klint.Ktcb.frame_files tcb.Klint.Ktcb.frame_loc;
  let json =
    Printf.sprintf
      "{\n  \"issue\": 7,\n  \"ktcb_wall_seconds\": %.4f,\n  \"tcb\": %s\n}\n"
      wall
      (Klint.Report.tcb_json tcb)
  in
  let path = Filename.concat root "BENCH_7.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr "ktcb: tcb snapshot written to %s@." path;
  (* And the durability snapshot (issue 10): one wall-clocked whole-tree
     kdur pass plus the contract/finding counts — the trajectory the dur
     ratchet walks downward as barrier paths get fixed. *)
  let t0 = Sys.time () in
  let kdur = Klint.Kdur.analyze_tree ~root in
  let kdur_wall = Sys.time () -. t0 in
  Fmt.pr
    "kdur (persisted): %d functions, %d durable / %d ordering contracts, %d findings@."
    kdur.Klint.Kdur.funcs kdur.Klint.Kdur.durable_funcs kdur.Klint.Kdur.ordering_funcs
    (List.length kdur.Klint.Kdur.findings);
  let json =
    Printf.sprintf
      "{\n  \"issue\": 10,\n  \"kdur_wall_seconds\": %.4f,\n  \"durability\": %s\n}\n"
      kdur_wall
      (Klint.Report.durability_json kdur)
  in
  let path = Filename.concat root "BENCH_10.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr "kdur: durability snapshot written to %s@." path;
  rows

(* BENCH-REFINE: the krefine enumerator.  A bechamel timing of a short
   lockstep-only pass (the inner loop CI's refine smoke stage pays per
   op), plus one persisted full run — states/sec and crash-images/sec
   over a kload-recorded trace, written as BENCH_8.json so the
   enumerator's throughput is a per-PR trajectory like the kload and tcb
   snapshots before it. *)

let bench_refine () =
  let trace = Kharness.recorded_trace ~target_ops:400 ~seed:11 () in
  let lockstep_only =
    { Kspec.Krefine.default_config with Kspec.Krefine.crash_every = 0 }
  in
  let crashing =
    { Kspec.Krefine.default_config with Kspec.Krefine.images_per_op = 2; crash_every = 8 }
  in
  (* The un-checked baseline the lockstep claim compares against: the
     same trace applied to journalfs-on-blockdev with no spec, no
     interp, no invariant. *)
  let geometry =
    { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }
  in
  let bare_run () =
    let dev =
      Kblock.Blockdev.create ~nblocks:geometry.Kfs.Journalfs.nblocks
        ~block_size:geometry.Kfs.Journalfs.block_size
    in
    let fs = Kfs.Journalfs.mkfs_on ~geometry Kfs.Journalfs.Journaled dev in
    List.iter (fun op -> ignore (Kfs.Journalfs.apply fs op)) trace
  in
  let rows =
    run_group "refine"
      [
        Test.make ~name:"journalfs-bare-400ops" (staged bare_run);
        Test.make ~name:"journalfs-lockstep-400ops"
          (staged (fun () ->
               ignore (Kharness.run ~config:lockstep_only Kharness.journalfs trace)));
        Test.make ~name:"journalfs-crash-enum-400ops"
          (staged (fun () ->
               ignore (Kharness.run ~config:crashing Kharness.journalfs trace)));
        Test.make ~name:"cowfs-lockstep-400ops"
          (staged (fun () ->
               ignore (Kharness.run ~config:lockstep_only Kharness.cowfs trace)));
      ]
  in
  rows

(* The persisted refine run: every registered harness over a longer
   trace with crash enumeration on, wall-clocked.  Runs *before* the
   timing groups — the process-global simulator state (lockdep classes,
   kmem site tables) the other benches accumulate across thousands of
   mounts would otherwise tax this measurement. *)
let refine_snapshot () =
  let long = Kharness.recorded_trace ~target_ops:2_000 ~seed:11 () in
  let config =
    { Kspec.Krefine.default_config with Kspec.Krefine.images_per_op = 4; crash_every = 4 }
  in
  let t0 = Sys.time () in
  let covs = List.map (fun e -> (e, Kharness.run ~config e long)) (Kharness.all ()) in
  let wall = Sys.time () -. t0 in
  let sum f = List.fold_left (fun a (_, c) -> a + f c) 0 covs in
  let states = sum (fun c -> c.Kspec.Krefine.states_explored) in
  let images = sum (fun c -> c.Kspec.Krefine.crash_images) in
  let divergences = sum (fun c -> List.length c.Kspec.Krefine.divergences) in
  let per_sec n = if wall > 0. then float_of_int n /. wall else 0. in
  let harness_json =
    String.concat ",\n    "
      (List.map
         (fun ((e : Kharness.entry), (c : Kspec.Krefine.coverage)) ->
           Printf.sprintf
             "{\"harness\": \"%s\", \"ops\": %d, \"states\": %d, \"crash_images\": %d, \
              \"divergences\": %d, \"fingerprint\": \"%s\"}"
             e.Kharness.hname c.Kspec.Krefine.ops c.Kspec.Krefine.states_explored
             c.Kspec.Krefine.crash_images
             (List.length c.Kspec.Krefine.divergences)
             (Kspec.Krefine.coverage_fingerprint c))
         covs)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"issue\": 8,\n\
      \  \"trace_ops\": %d,\n\
      \  \"wall_seconds\": %.4f,\n\
      \  \"states_per_sec\": %.0f,\n\
      \  \"crash_images_per_sec\": %.0f,\n\
      \  \"divergences\": %d,\n\
      \  \"harnesses\": [\n    %s\n  ]\n\
       }\n"
      (List.length long) wall (per_sec states) (per_sec images) divergences harness_json
  in
  let path =
    match Klint.find_root () with
    | Some root -> Filename.concat root "BENCH_8.json"
    | None -> "BENCH_8.json"
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr
    "@.krefine (persisted): %d states (%.0f/s), %d crash images (%.0f/s), %d divergences, \
     written to %s@."
    states (per_sec states) images (per_sec images) divergences path

(* BENCH-WCACHE: the volatile write-back disk contract (issue 9).  Two
   persisted trajectories in BENCH_9.json: enumerator throughput with
   cache-loss residues sampled at {e every} op (the crash surface the
   wcache multiplied under every registered harness), and wall-clock
   percentiles for one journal-replay recovery over a materialized
   cache-loss residue — the price of coming back from a lying drive. *)
let wcache_snapshot () =
  let trace = Kharness.recorded_trace ~target_ops:1_000 ~seed:11 () in
  let config =
    { Kspec.Krefine.default_config with Kspec.Krefine.images_per_op = 8; crash_every = 1 }
  in
  let t0 = Sys.time () in
  let covs = List.map (fun e -> (e, Kharness.run ~config e trace)) (Kharness.all ()) in
  let wall = Sys.time () -. t0 in
  let sum f = List.fold_left (fun a (_, c) -> a + f c) 0 covs in
  let states = sum (fun c -> c.Kspec.Krefine.states_explored) in
  let images = sum (fun c -> c.Kspec.Krefine.crash_images) in
  let divergences = sum (fun c -> List.length c.Kspec.Krefine.divergences) in
  let per_sec n = if wall > 0. then float_of_int n /. wall else 0. in
  (* Cache-loss recovery: journalfs over the cache with a small dirty
     bound, residues materialized over the durable media snapshot, each
     journal-replay mount wall-clocked into a histogram. *)
  let g = { Kfs.Journalfs.nblocks = 512; block_size = 128; jblocks = 48; ninodes = 16 } in
  let dev = Kblock.Blockdev.create ~nblocks:g.Kfs.Journalfs.nblocks ~block_size:g.Kfs.Journalfs.block_size in
  let wc = Kblock.Wcache.create ~capacity:8 ~seed:11 (Kblock.Blockdev.io dev) in
  let fs = Kfs.Journalfs.mkfs_on ~geometry:g ~io:(Kblock.Wcache.io wc) Kfs.Journalfs.Journaled dev in
  (match Kblock.Wcache.flush wc with Ok () -> () | Error _ -> assert false);
  ignore (Kblock.Wcache.take_durable wc);
  let media0 = Kblock.Blockdev.snapshot_media dev in
  let apply_entry media (e : Kblock.Wcache.entry) =
    Kblock.Media.set media e.blkno e.data
  in
  let hist = Ksim.Hist.create () in
  let p = Kspec.Fs_spec.path_of_string in
  let rng = Ksim.Rng.of_int 1009 in
  ignore (Kfs.Journalfs.apply fs (Kspec.Fs_spec.Create (p "/k")));
  for i = 1 to 200 do
    (match Ksim.Rng.int rng 5 with
    | 0 | 1 | 2 ->
        ignore
          (Kfs.Journalfs.apply fs
             (Kspec.Fs_spec.Write
                { file = p "/k"; off = 0; data = Printf.sprintf "v%08d:%s" i (String.make 16 'x') }))
    | 3 ->
        ignore
          (Kfs.Journalfs.apply fs
             (Kspec.Fs_spec.Create (p (Printf.sprintf "/c%d" (Ksim.Rng.int rng 4)))))
    | _ -> ignore (Kfs.Journalfs.apply fs Kspec.Fs_spec.Fsync));
    if i mod 10 = 0 then begin
      List.iter
        (fun residue ->
          let media = Kblock.Media.copy media0 in
          List.iter (apply_entry media) residue;
          let dev' = Kblock.Blockdev.of_media ~block_size:g.Kfs.Journalfs.block_size media in
          let m0 = Unix.gettimeofday () in
          ignore (Kfs.Journalfs.mount ~geometry:g Kfs.Journalfs.Journaled dev');
          Ksim.Hist.record hist
            (int_of_float ((Unix.gettimeofday () -. m0) *. 1e9)))
        (Kblock.Wcache.crash_residues wc ~limit:8);
      List.iter (apply_entry media0) (Kblock.Wcache.take_durable wc)
    end
  done;
  let s = Ksim.Hist.summarize hist in
  let harness_json =
    String.concat ",\n    "
      (List.map
         (fun ((e : Kharness.entry), (c : Kspec.Krefine.coverage)) ->
           Printf.sprintf
             "{\"harness\": \"%s\", \"ops\": %d, \"states\": %d, \"crash_images\": %d, \
              \"divergences\": %d}"
             e.Kharness.hname c.Kspec.Krefine.ops c.Kspec.Krefine.states_explored
             c.Kspec.Krefine.crash_images
             (List.length c.Kspec.Krefine.divergences))
         covs)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"issue\": 9,\n\
      \  \"trace_ops\": %d,\n\
      \  \"crash_every\": 1,\n\
      \  \"wall_seconds\": %.4f,\n\
      \  \"states_per_sec\": %.0f,\n\
      \  \"crash_images_per_sec\": %.0f,\n\
      \  \"divergences\": %d,\n\
      \  \"recovery_ns\": {\"count\": %d, \"min\": %d, \"mean\": %.0f, \"p50\": %d, \
       \"p95\": %d, \"p99\": %d, \"max\": %d},\n\
      \  \"harnesses\": [\n    %s\n  ]\n\
       }\n"
      (List.length trace) wall (per_sec states) (per_sec images) divergences
      s.Ksim.Hist.count s.Ksim.Hist.min s.Ksim.Hist.mean s.Ksim.Hist.p50 s.Ksim.Hist.p95
      s.Ksim.Hist.p99 s.Ksim.Hist.max harness_json
  in
  let path =
    match Klint.find_root () with
    | Some root -> Filename.concat root "BENCH_9.json"
    | None -> "BENCH_9.json"
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Fmt.pr
    "@.kwcache (persisted): %d states (%.0f/s), %d cache-loss images (%.0f/s), %d \
     divergences; recovery p50=%dns p99=%dns over %d replay mounts, written to %s@."
    states (per_sec states) images (per_sec images) divergences s.Ksim.Hist.p50
    s.Ksim.Hist.p99 s.Ksim.Hist.count path

(* Shape checks: turn the measured rows into the paper's qualitative
   claims, so bench output is self-judging. ------------------------------- *)

let find rows needle = List.assoc_opt needle rows |> Option.value ~default:nan

let shape_summary ~modularity ~typesafety ~ownership ~roadmap ~journal ~resilience ~supervision
    ~ablation ~lint ~refine =
  Fmt.pr "@.%s@.shape checks (paper claim -> measured):@." (String.make 64 '=');
  let ratio a b = if Float.is_nan a || Float.is_nan b || b = 0. then nan else a /. b in
  let claim name ok detail = Fmt.pr "  [%s] %-52s %s@." (if ok then "ok" else "??") name detail in
  let r1 =
    ratio (find modularity "modularity/modular-interface") (find modularity "modularity/direct-call")
  in
  claim "modular dispatch within ~3x of a direct call" (r1 < 3.0 || Float.is_nan r1)
    (Fmt.str "%.2fx" r1);
  let r2 =
    ratio (find typesafety "typesafety/amp-typed-receive")
      (find typesafety "typesafety/amp-unsafe-receive")
  in
  claim "typed packet dispatch ~ void* dispatch" (r2 < 2.0 || Float.is_nan r2) (Fmt.str "%.2fx" r2);
  let small =
    ratio (find ownership "ownership/message-copy-64b") (find ownership "ownership/share-shared-64b")
  in
  let large =
    ratio
      (find ownership "ownership/message-copy-65536b")
      (find ownership "ownership/share-shared-65536b")
  in
  claim "copy cost grows with payload; sharing stays flat" (large > small || Float.is_nan large)
    (Fmt.str "copy/share: %.1fx at 64B -> %.1fx at 64KiB" small large);
  let r4 =
    ratio (find roadmap "roadmap/stage2-typed-200ops") (find roadmap "roadmap/stage0-unsafe-200ops")
  in
  let r5 =
    ratio (find roadmap "roadmap/stage4-verified-200ops") (find roadmap "roadmap/stage2-typed-200ops")
  in
  claim "type safety is not slower than the unsafe idioms" (r4 < 1.5 || Float.is_nan r4)
    (Fmt.str "typed/unsafe %.2fx" r4);
  claim "verification monitor costs a bounded factor" (r5 < 30.0 || Float.is_nan r5)
    (Fmt.str "verified/typed %.2fx" r5);
  let rj = ratio (find journal "journal/journaled-fsync-each") (find journal "journal/direct-fsync-each") in
  let rb =
    ratio (find journal "journal/journaled-fsync-each")
      (find journal "journal/journaled-group-fsync-once")
  in
  claim "journaling costs a bounded write amplification" (rj < 8.0 || Float.is_nan rj)
    (Fmt.str "journaled/direct %.2fx" rj);
  claim "group commit amortizes the journal" (rb > 1.2 || Float.is_nan rb)
    (Fmt.str "per-op-commit/group-commit %.2fx" rb);
  let rr =
    ratio
      (find resilience "resilience/journalfs-write-stack-disabled")
      (find resilience "resilience/journalfs-write-bare")
  in
  claim "disabled failpoints cost ~nothing on the write path" (rr < 1.5 || Float.is_nan rr)
    (Fmt.str "stack-disabled/bare %.2fx" rr);
  let rs =
    ratio
      (find supervision "supervision/vfs-stat-supervised-healthy")
      (find supervision "supervision/vfs-stat-unsupervised")
  in
  claim "oops firewall is cheap on the healthy path" (rs < 3.0 || Float.is_nan rs)
    (Fmt.str "supervised/unsupervised %.2fx" rs);
  let ra =
    ratio (find ablation "ablation/bufferhead-checked-20blocks")
      (find ablation "ablation/bufferhead-unchecked-20blocks")
  in
  claim "buffer_head validity checks are cheap" (ra < 2.0 || Float.is_nan ra) (Fmt.str "%.2fx" ra);
  let rl = ratio (find lint "lint/kown-whole-tree") (find lint "lint/kracer-whole-tree") in
  claim "ownership lint costs the same order as the race lint" (rl < 5.0 || Float.is_nan rl)
    (Fmt.str "kown/kracer %.2fx" rl);
  let rt = ratio (find lint "lint/ktcb-whole-tree") (find lint "lint/kracer-whole-tree") in
  claim "frame-confinement lint costs the same order as the race lint"
    (rt < 5.0 || Float.is_nan rt)
    (Fmt.str "ktcb/kracer %.2fx" rt);
  let rd = ratio (find lint "lint/kdur-whole-tree") (find lint "lint/kracer-whole-tree") in
  claim "barrier-discipline lint costs the same order as the race lint"
    (rd < 5.0 || Float.is_nan rd)
    (Fmt.str "kdur/kracer %.2fx" rd);
  let rf =
    ratio
      (find refine "refine/journalfs-lockstep-400ops")
      (find refine "refine/journalfs-bare-400ops")
  in
  claim "lockstep refinement costs a bounded factor over bare execution"
    (rf < 50.0 || Float.is_nan rf)
    (Fmt.str "lockstep/bare %.2fx" rf);
  (* crash enumeration is reported, not claimed flat: every crash point
     pays a full remount + interp, so its cost scales with images, not
     with the lockstep pass *)
  let rc =
    ratio
      (find refine "refine/journalfs-crash-enum-400ops")
      (find refine "refine/journalfs-lockstep-400ops")
  in
  Fmt.pr "  [--] %-52s %s@." "crash enumeration (remount+interp per image, info only)"
    (Fmt.str "crash-enum/lockstep %.1fx" rc)

(* BENCH-VALIDATE: `bench --validate` re-parses every persisted
   BENCH_*.json at the repo root and fails fast on a malformed one, so a
   bad snapshot breaks CI instead of silently dropping out of the
   paper's evidence trail.  The tree has no JSON library (and shouldn't
   grow one for this), so the checker is a minimal hand-rolled
   recursive-descent pass: full well-formedness, plus the snapshot
   schema — a top-level object carrying a numeric "issue" tag and at
   least one numeric metric. ------------------------------------------------- *)

module Validate = struct
  exception Malformed of string

  (* Parse [s] as one JSON value; returns (keys seen in any object,
     count of numeric literals).  Raises [Malformed] with a byte offset
     on any syntax error, including trailing garbage. *)
  let parse (s : string) : string list * int =
    let n = String.length s in
    let pos = ref 0 in
    let keys = ref [] in
    let numbers = ref 0 in
    let fail msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos >= n then '\255' else s.[!pos] in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
    in
    let expect c =
      if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
    in
    let keyword k =
      let l = String.length k in
      if !pos + l <= n && String.sub s !pos l = k then pos := !pos + l
      else fail ("expected " ^ k)
    in
    let number () =
      let start = !pos in
      if peek () = '-' then advance ();
      let digit c = c >= '0' && c <= '9' in
      while digit (peek ()) || peek () = '.' || peek () = 'e' || peek () = 'E'
            || peek () = '+' || peek () = '-' do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      match float_of_string_opt lit with
      | Some _ -> incr numbers
      | None -> fail (Printf.sprintf "bad number %S" lit)
    in
    let string_lit () =
      expect '"';
      let start = !pos in
      let rec go () =
        match peek () with
        | '\255' -> fail "unterminated string"
        | '"' ->
            let v = String.sub s start (!pos - start) in
            advance ();
            v
        | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape";
            advance ();
            go ()
        | _ -> advance (); go ()
      in
      go ()
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' -> obj ()
      | '[' -> arr ()
      | '"' -> ignore (string_lit ())
      | 't' -> keyword "true"
      | 'f' -> keyword "false"
      | 'n' -> keyword "null"
      | c when c = '-' || (c >= '0' && c <= '9') -> number ()
      | '\255' -> fail "unexpected end of input"
      | c -> fail (Printf.sprintf "unexpected '%c'" c)
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          keys := string_lit () :: !keys;
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ()
          | '}' -> advance ()
          | _ -> fail "expected ',' or '}' in object"
        in
        members ()
    and arr () =
      expect '[';
      skip_ws ();
      if peek () = ']' then advance ()
      else
        let rec elems () =
          value ();
          skip_ws ();
          match peek () with
          | ',' -> advance (); elems ()
          | ']' -> advance ()
          | _ -> fail "expected ',' or ']' in array"
        in
        elems ()
    in
    skip_ws ();
    if peek () <> '{' then fail "snapshot must be a top-level object";
    value ();
    skip_ws ();
    if !pos <> n then fail "trailing garbage after the top-level value";
    (List.rev !keys, !numbers)

  let check_file path =
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let keys, numbers = parse s in
    if not (List.mem "issue" keys) then
      raise (Malformed "schema: missing \"issue\" tag");
    if numbers = 0 then raise (Malformed "schema: no numeric metrics");
    (List.length keys, numbers)

  let run () =
    let root =
      match Klint.find_root () with
      | Some r -> r
      | None -> failwith "bench: cannot locate dune-project root"
    in
    let files =
      Sys.readdir root |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort compare
    in
    if files = [] then begin
      Fmt.epr "bench: FAIL — no BENCH_*.json snapshots under %s@." root;
      exit 1
    end;
    let bad = ref 0 in
    List.iter
      (fun f ->
        let path = Filename.concat root f in
        match check_file path with
        | nkeys, nnums ->
            Fmt.pr "bench: %-14s ok (%d keys, %d numeric metrics)@." f nkeys nnums
        | exception Malformed msg ->
            incr bad;
            Fmt.epr "bench: FAIL — %s: %s@." f msg
        | exception Sys_error msg ->
            incr bad;
            Fmt.epr "bench: FAIL — %s: %s@." f msg)
      files;
    if !bad > 0 then begin
      Fmt.epr "bench: %d malformed snapshot(s)@." !bad;
      exit 1
    end;
    Fmt.pr "bench: %d snapshot(s) valid@." (List.length files)
end

(* main ----------------------------------------------------------------------- *)

let boot_registry () =
  let r = Safeos_core.Registry.create () in
  ignore
    (Safeos_core.Registry.register r ~name:"memfs" ~kind:Safeos_core.Registry.File_system
       ~level:Safeos_core.Level.Modular ~iface:Safeos_core.Interface.fs_interface ~loc:430
       ~description:"in-memory FS, C idioms behind a modular interface" ());
  ignore
    (Safeos_core.Registry.register r ~name:"journalfs" ~kind:Safeos_core.Registry.File_system
       ~level:Safeos_core.Level.Type_safe ~iface:Safeos_core.Interface.fs_interface ~loc:620
       ~description:"journaled block FS" ());
  ignore
    (Safeos_core.Registry.register r ~name:"memfs_verified"
       ~kind:Safeos_core.Registry.File_system ~level:Safeos_core.Level.Verified
       ~iface:Safeos_core.Interface.fs_interface ~loc:230 ~description:"refinement-checked FS" ());
  r

let () =
  (* Validation mode: parse the persisted snapshots and exit — must not
     run (or overwrite) any benchmark. *)
  if Array.exists (fun a -> a = "--validate") Sys.argv then begin
    Validate.run ();
    exit 0
  end;
  Fmt.pr "================ paper artifacts (tables & figures) ================@.";
  Kcve.Figures.all std (boot_registry ());
  Format.pp_print_flush std ();
  Fmt.pr "@.================ timing benchmarks ================@.";
  refine_snapshot ();
  wcache_snapshot ();
  let modularity = bench_modularity () in
  let typesafety = bench_typesafety () in
  let ownership = bench_ownership () in
  let roadmap = bench_roadmap () in
  let journal = bench_journal () in
  let resilience = bench_resilience () in
  let supervision = bench_supervision () in
  let _ebpf = bench_ebpf () in
  let _mm = bench_mm () in
  let _kload = bench_kload () in
  let ablation = bench_ablation () in
  let lint = bench_lint () in
  let refine = bench_refine () in
  shape_summary ~modularity ~typesafety ~ownership ~roadmap ~journal ~resilience ~supervision
    ~ablation ~lint ~refine;
  Fmt.pr "@.done.@."
