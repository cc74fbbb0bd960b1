(* Tests for the benchmark's own probes: they must be transparent, count
   calls and bytes exactly, and do the self-time arithmetic right. *)

module Fs = Kspec.Fs_spec
module Probe = Perfbench.Probe

let p = Fs.path_of_string

let tiny_trace =
  [
    Fs.Mkdir (p "/d");
    Fs.Create (p "/d/a");
    Fs.Write { file = p "/d/a"; off = 0; data = String.make 700 'x' };
    Fs.Fsync;
    Fs.Read { file = p "/d/a"; off = 100; len = 50 };
    Fs.Rename (p "/d/a", p "/d/b");
    Fs.Unlink (p "/d/missing");
    Fs.Readdir (p "/d");
    Fs.Fsync;
  ]

let geometry = { Kfs.Journalfs.nblocks = 256; block_size = 512; jblocks = 16; ninodes = 16 }

(* journalfs over Resilient/Wcache/Blockdev, optionally probed at every
   boundary; returns every result, the final state and the layers. *)
let run_stack ~probed =
  let layers = List.map Probe.layer [ "resilient"; "wcache"; "blockdev" ] in
  let via name io =
    if probed then Probe.io (List.find (fun l -> l.Probe.name = name) layers) io else io
  in
  let dev = Kblock.Blockdev.create ~nblocks:geometry.nblocks ~block_size:geometry.block_size in
  let wc = Kblock.Wcache.create ~capacity:4 (via "blockdev" (Kblock.Blockdev.io dev)) in
  let res = Kblock.Resilient.create (via "wcache" (Kblock.Wcache.io wc)) in
  let io = via "resilient" (Kblock.Resilient.io res) in
  let fs = Kfs.Journalfs.mkfs_on ~geometry ~io Kfs.Journalfs.Journaled dev in
  let results = List.map (Kfs.Journalfs.apply fs) tiny_trace in
  (results, Kfs.Journalfs.interpret fs, Kblock.Wcache.flushes wc, layers)

let test_io_transparent () =
  let r0, s0, f0, _ = run_stack ~probed:false in
  let r1, s1, f1, layers = run_stack ~probed:true in
  Alcotest.(check bool) "same results" true (List.for_all2 Fs.equal_result r0 r1);
  Alcotest.(check bool) "same state" true (Fs.equal s0 s1);
  Alcotest.(check int) "same flushes" f0 f1;
  List.iter
    (fun l -> Alcotest.(check bool) (l.Probe.name ^ " was called") true (l.Probe.calls > 0))
    layers

let test_io_counts () =
  let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:512 in
  let l = Probe.layer "blockdev" in
  let io = Probe.io l (Kblock.Blockdev.io dev) in
  let block c = Bytes.make 512 c in
  List.iter (fun b -> ignore (io.Kblock.Io.write b (block 'a') : unit Ksim.Errno.r)) [ 0; 1; 2 ];
  ignore (io.Kblock.Io.flush () : unit Ksim.Errno.r);
  ignore (io.Kblock.Io.read 1 : bytes Ksim.Errno.r);
  ignore (io.Kblock.Io.read 99 : bytes Ksim.Errno.r);
  ignore (Kblock.Io.fua io 3 (block 'b') : unit Ksim.Errno.r);
  (* 3 writes, 1 flush, 2 reads (one out of range) and one native FUA
     write. *)
  Alcotest.(check int) "calls" 7 l.Probe.calls;
  Alcotest.(check int) "bytes written" (4 * 512) l.Probe.bytes_written;
  Alcotest.(check int) "bytes read" 512 l.Probe.bytes_read;
  Alcotest.(check int) "flushes" 1 l.Probe.flushes;
  Alcotest.(check int) "device writes" 4 (Kblock.Blockdev.writes dev)

let test_fs_ops_transparent () =
  let l = Probe.layer "journalfs" in
  let apply_all (type f) (module F : Kvfs.Iface.FS_OPS with type fs = f) =
    let fs = F.mkfs () in
    let results = List.map (F.apply fs) tiny_trace in
    (results, F.interpret fs)
  in
  let r0, s0 = apply_all (module Kfs.Journalfs.Journaled_fs) in
  let r1, s1 = apply_all (Probe.fs_ops l (module Kfs.Journalfs.Journaled_fs)) in
  Alcotest.(check bool) "same results" true (List.for_all2 Fs.equal_result r0 r1);
  Alcotest.(check bool) "same state" true (Fs.equal s0 s1);
  Alcotest.(check int) "one call per op" (List.length tiny_trace) l.Probe.calls

let test_machine_transparent () =
  let config =
    { Kspec.Krefine.default_config with Kspec.Krefine.images_per_op = 2; crash_every = 2 }
  in
  List.iter
    (fun (e : Kharness.entry) ->
      let plain = Kharness.run ~config e tiny_trace in
      let phases = Probe.phases () in
      let (Kharness.Packed m) = e.Kharness.machine in
      let probed = Kspec.Krefine.run ~config (Probe.machine phases m) tiny_trace in
      Alcotest.(check string)
        (e.Kharness.hname ^ " fingerprint")
        (Kspec.Krefine.coverage_fingerprint plain)
        (Kspec.Krefine.coverage_fingerprint probed);
      Alcotest.(check int)
        (e.Kharness.hname ^ " one step per op")
        (List.length tiny_trace) phases.Probe.step.Probe.calls)
    (Kharness.all ())

(* A scripted clock: time moves only when the test says so. *)
let with_clock f =
  let now = ref 0 in
  let saved = !Probe.clock in
  Probe.clock := (fun () -> !now);
  Fun.protect ~finally:(fun () -> Probe.clock := saved) (fun () -> f (fun dt -> now := !now + dt))

let test_self_time () =
  with_clock (fun advance ->
      let outer = Probe.layer "outer" and mid = Probe.layer "mid" and inner = Probe.layer "inner" in
      Probe.span outer (fun () ->
          advance 5;
          Probe.span mid (fun () ->
              advance 7;
              Probe.span inner (fun () -> advance 11);
              Probe.span inner (fun () -> advance 2));
          advance 3);
      advance 100;
      Alcotest.(check (list int)) "inclusive" [ 28; 20; 13 ]
        (List.map (fun l -> l.Probe.incl_ns) [ outer; mid; inner ]);
      Alcotest.(check (list int)) "self" [ 8; 7; 13 ]
        (List.map (fun l -> l.Probe.self_ns) [ outer; mid; inner ]);
      Alcotest.(check int) "inner calls" 2 inner.Probe.calls;
      Alcotest.(check int) "residual" 12 (Probe.residual_ns ~wall_ns:40 [ outer; mid; inner ]))

let test_span_exception () =
  with_clock (fun advance ->
      let outer = Probe.layer "outer" and inner = Probe.layer "inner" in
      Probe.span outer (fun () ->
          (try Probe.span inner (fun () -> advance 4; failwith "boom") with Failure _ -> ());
          advance 6);
      Alcotest.(check int) "inner closed" 4 inner.Probe.incl_ns;
      Alcotest.(check int) "outer self" 6 outer.Probe.self_ns;
      Alcotest.(check bool) "no span left open" true (!Probe.open_spans = []))

let () =
  Alcotest.run "perfbench"
    [
      ( "probes",
        [
          Alcotest.test_case "io wrapper is transparent" `Quick test_io_transparent;
          Alcotest.test_case "io wrapper counts calls and bytes" `Quick test_io_counts;
          Alcotest.test_case "fs_ops wrapper is transparent" `Quick test_fs_ops_transparent;
          Alcotest.test_case "machine wrapper is transparent" `Quick test_machine_transparent;
          Alcotest.test_case "self time and residual" `Quick test_self_time;
          Alcotest.test_case "span closes on exception" `Quick test_span_exception;
        ] );
    ]
