(* krefine at scale: the registered kharness machines (journalfs as an
   IOSystem, cowfs, the supervised-microreboot path) checked against the
   abstract map over real kload-recorded traffic, determinism of the
   verdict in the seed, and the divergence reporters — a deliberately
   buggy machine must be convicted with a minimal counterexample, and a
   seeded replay-skip fault in the microreboot remount must be caught by
   the lockstep check — and the crash-safety experiment (EXP-CRASH). *)

open Kspec

let check = Alcotest.check
let p = Fs_spec.path_of_string

(* One recorded trace per (target, seed), shared across tests: recording
   runs a full kload population, so cache it. *)
let trace_cache : (int * int, Fs_spec.op list) Hashtbl.t = Hashtbl.create 4

let trace ~target_ops ~seed =
  match Hashtbl.find_opt trace_cache (target_ops, seed) with
  | Some t -> t
  | None ->
      let t = Kharness.recorded_trace ~target_ops ~seed () in
      Hashtbl.add trace_cache (target_ops, seed) t;
      t

(* The CI seed hook: KSIM_REFINE_SEEDS="3,17" widens the sweep without a
   code change.  Default stays cheap. *)
let refine_seeds () =
  match Sys.getenv_opt "KSIM_REFINE_SEEDS" with
  | None | Some "" -> [ 11 ]
  | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

let quick_config =
  { Krefine.default_config with Krefine.images_per_op = 4; crash_every = 4 }

let test_trace_recording () =
  let t = trace ~target_ops:800 ~seed:11 in
  check Alcotest.bool "at least target ops" true (List.length t >= 800);
  (* deterministic in the seed, and round-trips through the line form *)
  let t' = trace ~target_ops:800 ~seed:11 in
  check Alcotest.bool "deterministic" true (t = t');
  let reparsed =
    List.map (fun op -> Result.get_ok (Kload.Trace.of_line (Kload.Trace.to_line op))) t
  in
  check Alcotest.bool "line form round-trips" true (t = reparsed);
  check Alcotest.bool "has fsyncs" true (List.exists (fun op -> op = Fs_spec.Fsync) t)

let test_journalfs_refines () =
  List.iter
    (fun seed ->
      let t = trace ~target_ops:800 ~seed in
      let cov =
        Kharness.run ~config:{ quick_config with Krefine.seed } Kharness.journalfs t
      in
      if not (Krefine.is_clean cov) then
        Alcotest.failf "journalfs diverged (seed %d): %a" seed Krefine.pp_coverage cov;
      check Alcotest.int "every op checked" (List.length t) cov.Krefine.ops;
      check Alcotest.bool "crash points enumerated" true (cov.Krefine.crash_points > 0);
      check Alcotest.bool "crash images checked" true (cov.Krefine.crash_images > 0))
    (refine_seeds ())

let test_cowfs_refines () =
  let t = trace ~target_ops:800 ~seed:11 in
  let cov = Kharness.run ~config:quick_config Kharness.cowfs t in
  if not (Krefine.is_clean cov) then
    Alcotest.failf "cowfs diverged: %a" Krefine.pp_coverage cov;
  check Alcotest.int "every op checked" (List.length t) cov.Krefine.ops

let test_microreboot_refines () =
  let t = trace ~target_ops:800 ~seed:11 in
  (* lockstep across ~ops/64 injected panics; crash images exercise the
     reboot-into-crashed-device path on a sparser cadence *)
  let config = { quick_config with Krefine.images_per_op = 2; crash_every = 16 } in
  let cov = Kharness.run ~config Kharness.microreboot t in
  if not (Krefine.is_clean cov) then
    Alcotest.failf "microreboot diverged: %a" Krefine.pp_coverage cov;
  check Alcotest.bool "panics actually injected" true
    (List.length t >= 2 * Kharness.panic_cadence);
  check Alcotest.bool "crash images checked" true (cov.Krefine.crash_images > 0)

let test_verdict_deterministic () =
  let t = trace ~target_ops:800 ~seed:11 in
  let fp1 = Krefine.coverage_fingerprint (Kharness.run ~config:quick_config Kharness.journalfs t) in
  let fp2 = Krefine.coverage_fingerprint (Kharness.run ~config:quick_config Kharness.journalfs t) in
  check Alcotest.string "byte-identical verdict across replays" fp1 fp2;
  let other = { quick_config with Krefine.seed = 99; crash_every = 2 } in
  let fp3 = Krefine.coverage_fingerprint (Kharness.run ~config:other Kharness.journalfs t) in
  check Alcotest.bool "different config, different fingerprint" true (fp1 <> fp3)

let test_at_scale () =
  (* The acceptance-scale sweep: every registered harness over a >=10k-op
     recorded trace with crash-point enumeration at every op.  About ten
     seconds of wall clock on a 2-core host, so it only runs when asked for —
     KSIM_REFINE_FULL=1 (the `safeos refine` defaults run the same
     configuration from the CLI). *)
  if Sys.getenv_opt "KSIM_REFINE_FULL" <> Some "1" then ()
  else begin
    let t = trace ~target_ops:10_000 ~seed:11 in
    check Alcotest.bool ">=10k ops recorded" true (List.length t >= 10_000);
    let config = { Krefine.default_config with Krefine.images_per_op = 4; crash_every = 1 } in
    List.iter
      (fun (e : Kharness.entry) ->
        let cov = Kharness.run ~config e t in
        if not (Krefine.is_clean cov) then
          Alcotest.failf "%s diverged at scale: %a" e.Kharness.hname Krefine.pp_coverage cov;
        check Alcotest.int (e.Kharness.hname ^ ": every op checked") (List.length t)
          cov.Krefine.ops;
        check Alcotest.int (e.Kharness.hname ^ ": a crash point at every op")
          (List.length t) cov.Krefine.crash_points)
      (Kharness.all ())
  end

(* The pinned equivalence sweep (`safeos refine --all --seed 11 --ops 2000
   --crash-every 4 --images 4`): its coverage fingerprints must stay
   byte-identical across every change to the disk or crash model, and the
   process's peak heap must stay under a ceiling, so a leak of crash
   images fails here by name rather than in the OOM killer.  The sweep
   runs once per process and is shared by the two tests below. *)
let pinned_fingerprints =
  [
    ("journalfs", "ecc0a75377473a80dcd8bcc2dc1ffc0b");
    ("cowfs", "d89a23c5a48b6a78161d8a2f15b7a0ad");
    ("journalfs.microreboot", "20ad1a84855510aa209debcbf1203788");
  ]

let heap_ceiling_mb = 64

type sweep_run = { entry : Kharness.entry; cov : Krefine.coverage; top_mb : int }

(* Words allocated by the [Kharness.run] calls alone (the trace is
   recorded first), counted as minor + major - promoted so the figure is
   the program's own allocation, independent of GC timing. *)
let pinned_sweep =
  lazy
    (let t = trace ~target_ops:2000 ~seed:11 in
     let config =
       { Krefine.default_config with Krefine.seed = 11; images_per_op = 4; crash_every = 4 }
     in
     let words () =
       let g = Gc.quick_stat () in
       g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
     in
     let w0 = words () in
     let runs =
       List.map
         (fun entry ->
           let cov = Kharness.run ~config entry t in
           let top_mb = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) / 1_000_000 in
           { entry; cov; top_mb })
         (Kharness.all ())
     in
     let states = List.fold_left (fun n r -> n + r.cov.Krefine.states_explored) 0 runs in
     (runs, (words () -. w0) /. float_of_int states, states))

(* Allocation ceiling: words allocated per refine state over the pinned
   sweep.  Like [test_kload]'s ceiling it depends on what earlier tests
   left in the process, so this case runs first in the binary, where it
   measures 11,680 words per state (11,583 states), the same alone and
   in the whole suite.  Before crash images were copy-on-write (a flat
   block-pointer array copied twice per image, and recovery mounts that
   copied every block they parsed) it measured 19,448, which fails the
   ceiling.  The ceiling is 1.25x the figure. *)
let alloc_base_words_per_state = 11_700.0
let alloc_ceiling_words_per_state = 1.25 *. alloc_base_words_per_state

let test_alloc_ceiling () =
  let _, per_state, states = Lazy.force pinned_sweep in
  Printf.printf "pinned sweep: %.1f words allocated per state (%d states; ceiling %.0f)\n"
    per_state states alloc_ceiling_words_per_state;
  if per_state > alloc_ceiling_words_per_state then
    Alcotest.failf "refine allocation ceiling: %.1f words/state > %.0f (1.25 x %.0f)" per_state
      alloc_ceiling_words_per_state alloc_base_words_per_state

let test_pinned_sweep () =
  let runs, _, _ = Lazy.force pinned_sweep in
  List.iter
    (fun r ->
      let name = r.entry.Kharness.hname in
      if r.top_mb > heap_ceiling_mb then
        Alcotest.failf "%s: peak heap %d MB over the %d MB ceiling" name r.top_mb heap_ceiling_mb;
      check Alcotest.string (name ^ ": pinned fingerprint")
        (List.assoc name pinned_fingerprints)
        (Krefine.coverage_fingerprint r.cov))
    runs

(* Divergence reporting -------------------------------------------------- *)

module Lost_rename = struct
  type vars = Kfs.Memfs_typed.fs

  let name = "memfs+lost-rename"
  let init () = Kfs.Memfs_typed.mkfs ()

  (* the deliberate bug: rename drops the destination dirent *)
  let step v op =
    match op with
    | Fs_spec.Rename (src, _) -> (v, Kfs.Memfs_typed.apply v (Fs_spec.Unlink src))
    | _ -> (v, Kfs.Memfs_typed.apply v op)

  let interp = Kfs.Memfs_typed.interpret
  let inv v = Fs_spec.wf (Kfs.Memfs_typed.interpret v)
  let crash_images _ ~limit:_ = []
end

let test_lost_rename_minimal_counterexample () =
  (* bury the bug in unrelated traffic; the shrinker must dig it out *)
  let noise =
    List.concat_map
      (fun i ->
        [
          Fs_spec.Mkdir (p (Printf.sprintf "/d%d" i));
          Fs_spec.Create (p (Printf.sprintf "/d%d/f" i));
          Fs_spec.Write { file = p (Printf.sprintf "/d%d/f" i); off = 0; data = "x" };
        ])
      [ 0; 1; 2; 3; 4 ]
  in
  let t = noise @ [ Fs_spec.Create (p "/x"); Fs_spec.Rename (p "/x", p "/y") ] @ noise in
  let cov = Krefine.run (module Lost_rename) t in
  match cov.Krefine.divergences with
  | [] -> Alcotest.fail "lost rename escaped the checker"
  | d :: _ ->
      (match d.Krefine.mismatch with
      | Krefine.State_mismatch _ -> ()
      | m -> Alcotest.failf "expected a state mismatch, got %a" Krefine.pp_mismatch m);
      check Alcotest.int "minimal counterexample: create + rename" 2
        (List.length d.Krefine.counterexample);
      (* and the counterexample replays to the same kind of divergence *)
      let replay = Krefine.run (module Lost_rename) d.Krefine.counterexample in
      check Alcotest.bool "counterexample reproduces" false (Krefine.is_clean replay)

let test_replay_skip_fault_caught () =
  (* committed-but-unfsynced ops + a microreboot whose remount skips
     journal replay: the lockstep check must see the state regress.  The
     same trace on the honest machine is clean — replay is exactly what
     makes the microreboot invisible. *)
  let t =
    [
      Fs_spec.Create (p "/a");
      Fs_spec.Write { file = p "/a"; off = 0; data = "committed" };
      Fs_spec.Create (p "/b");
      Fs_spec.Write { file = p "/b"; off = 0; data = "unfsynced" };
      Fs_spec.Stat (p "/a");
      Fs_spec.Readdir (p "/");
    ]
  in
  let config = { Krefine.default_config with Krefine.crash_every = 0 } in
  let (Kharness.Packed (module Sabotaged)) = Kharness.microreboot_sabotaged ~panic_every:4 () in
  let cov = Krefine.run ~config (module Sabotaged) t in
  if Krefine.is_clean cov then Alcotest.fail "replay-skip fault escaped the lockstep check";
  check Alcotest.bool "divergence at or after the microreboot" true
    (cov.Krefine.deepest_divergence >= 3);
  let honest = Kharness.run ~config Kharness.microreboot t in
  if not (Krefine.is_clean honest) then
    Alcotest.failf "honest microreboot diverged: %a" Krefine.pp_coverage honest

let test_missing_barrier_convicted () =
  (* The seeded missing-barrier mutant: journal commit records flush with
     their data blocks and the checkpoint superblock with its home
     writes.  Under the write-back cache the checkpoint's homes and the
     advanced superblock share one barrier epoch, so a cache-loss residue
     can keep the superblock (replay disabled) while dropping home blocks
     — a torn state no honest barrier discipline can reach.  The crash
     enumerator must convict it, with a shrunk counterexample; the honest
     stack stays clean on the same trace. *)
  let t =
    List.concat_map
      (fun i ->
        [
          Fs_spec.Create (p (Printf.sprintf "/f%d" i));
          Fs_spec.Write
            { file = p (Printf.sprintf "/f%d" i); off = 0; data = Printf.sprintf "payload-%d" i };
        ])
      [ 0; 1; 2; 3; 4; 5 ]
    @ [ Fs_spec.Fsync; Fs_spec.Stat (p "/f0"); Fs_spec.Readdir (p "/") ]
  in
  let config = { Krefine.default_config with Krefine.images_per_op = 32 } in
  let (Kharness.Packed (module Mutant)) = Kharness.journalfs_missing_barrier () in
  let cov = Krefine.run ~config (module Mutant) t in
  match cov.Krefine.divergences with
  | [] -> Alcotest.fail "missing-barrier mutant escaped the crash enumerator"
  | d :: _ ->
      (match d.Krefine.mismatch with
      | Krefine.Crash_divergence _ -> ()
      | m -> Alcotest.failf "expected a crash divergence, got %a" Krefine.pp_mismatch m);
      check Alcotest.bool "counterexample shrunk" true
        (List.length d.Krefine.counterexample < List.length t);
      check Alcotest.bool "counterexample small" true
        (List.length d.Krefine.counterexample <= 6);
      (* the shrunk trace reproduces on a fresh mutant *)
      let (Kharness.Packed (module Mutant2)) = Kharness.journalfs_missing_barrier () in
      let replay = Krefine.run ~config (module Mutant2) d.Krefine.counterexample in
      check Alcotest.bool "counterexample reproduces" false (Krefine.is_clean replay);
      (* honest barriers over the identical trace and config: clean *)
      let honest = Kharness.run ~config Kharness.journalfs t in
      if not (Krefine.is_clean honest) then
        Alcotest.failf "honest journalfs diverged on the mutant's trace: %a"
          Krefine.pp_coverage honest

let test_registry () =
  let names = List.map (fun e -> e.Kharness.hname) (Kharness.all ()) in
  List.iter
    (fun n -> check Alcotest.bool (n ^ " registered") true (List.mem n names))
    [ "journalfs"; "cowfs"; "journalfs.microreboot" ];
  check Alcotest.bool "find journalfs" true (Kharness.find "journalfs" <> None);
  check Alcotest.bool "find unknown" true (Kharness.find "nope" = None);
  let subs = Kharness.subsystems_covered () in
  List.iter
    (fun s -> check Alcotest.bool (s ^ " covered") true (List.mem s subs))
    [ "journalfs"; "cowfs" ]

(* EXP-CRASH ---------------------------------------------------------------- *)

(* The crash-safety experiment on the one crash model: the journaled
   file system over the hostile disk ([Kharness.journalfs], its group-
   commit twin) must recover to a spec-allowed state at a crash point
   after every op; the unjournaled twin must be convicted. *)

(* Small deterministic traces that mix metadata and data, with an early
   fsync so lost updates are actually illegal. *)
let trace_with_fsync =
  [
    Fs_spec.Mkdir (p "/d");
    Fs_spec.Create (p "/d/f");
    Fs_spec.Write { file = p "/d/f"; off = 0; data = "synced" };
    Fs_spec.Fsync;
    Fs_spec.Write { file = p "/d/f"; off = 0; data = "later1" };
    Fs_spec.Create (p "/d/g");
    Fs_spec.Rename (p "/d/g", p "/d/h");
    Fs_spec.Write { file = p "/d/h"; off = 0; data = "tail" };
    Fs_spec.Unlink (p "/d/f");
  ]

let generated_trace ?(max_write = 256) seed ops =
  Kfs.Workload.generate ~seed Kfs.Workload.Mixed ~ops
  |> List.filter (fun op ->
         match op with
         | Fs_spec.Write { data; _ } -> String.length data <= max_write
         | _ -> true)

let crash_run ~images (Kharness.Packed (module M)) trace =
  Krefine.run ~config:{ Krefine.default_config with Krefine.images_per_op = images } (module M) trace

let journaled = Kharness.journalfs.Kharness.machine

let check_crash_safe what cov =
  if not (Krefine.is_clean cov) then Alcotest.failf "%s: %a" what Krefine.pp_coverage cov

let test_journaled_safe_fixed_trace () =
  let cov = crash_run ~images:16 journaled trace_with_fsync in
  check Alcotest.int "every op crashed" (List.length trace_with_fsync) cov.Krefine.crash_points;
  check Alcotest.bool "images explored" true (cov.Krefine.crash_images > 0);
  check Alcotest.(list string) "no failures" []
    (List.map (Fmt.str "%a" Krefine.pp_divergence) cov.Krefine.divergences)

let test_journaled_safe_generated_traces () =
  List.iter
    (fun seed ->
      check_crash_safe (Printf.sprintf "seed %d crash-safe" seed)
        (crash_run ~images:8 journaled (generated_trace seed 20)))
    [ 1; 2; 3; 4; 5 ]

let test_group_commit_safe_generated_traces () =
  (* Group commit defers durability but must never produce a non-prefix
     state: the whole uncommitted batch disappears at once. *)
  List.iter
    (fun seed ->
      check_crash_safe (Printf.sprintf "group seed %d crash-safe" seed)
        (crash_run ~images:8 (Kharness.journalfs_group_commit ()) (generated_trace seed 20)))
    [ 11; 12; 13 ]

let test_group_commit_functional () =
  (* Group mode must be functionally identical to per-op commit. *)
  let trace = generated_trace 99 60 in
  let a = Kfs.Journalfs.Journaled_fs.mkfs () in
  let b = Kfs.Journalfs.Journaled_group_fs.mkfs () in
  List.iter
    (fun op ->
      let ra = Kfs.Journalfs.apply a op and rb = Kfs.Journalfs.apply b op in
      check Alcotest.bool "same result" true (Fs_spec.equal_result ra rb))
    trace;
  check Alcotest.bool "same final state" true
    (Fs_spec.equal (Kfs.Journalfs.interpret a) (Kfs.Journalfs.interpret b))

let test_group_commit_crash_loses_whole_batch () =
  (* Without an fsync, a crash may erase the entire uncommitted batch —
     and must erase it atomically (a legal prefix), never partially. *)
  let dev = Kblock.Blockdev.create ~nblocks:1024 ~block_size:512 in
  ignore (Kfs.Journalfs.mkfs_on Kfs.Journalfs.Journaled dev);
  let wdisk = Kharness.Wdisk.of_dev dev in
  let fs =
    Kfs.Journalfs.mount ~group_commit:true ~io:(Kharness.Wdisk.io wdisk)
      Kfs.Journalfs.Journaled dev
  in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/a")));
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/b")));
  let stat fs path = Kfs.Journalfs.apply fs (Fs_spec.Stat (p path)) in
  let images = Kharness.Wdisk.crash_devs wdisk ~limit:16 in
  check Alcotest.bool "crash images" true (images <> []);
  (* Both creates were in the open (uncommitted) transaction: both gone. *)
  List.iter
    (fun img ->
      let fs2 = Kfs.Journalfs.mount ~group_commit:true Kfs.Journalfs.Journaled img in
      check Alcotest.bool "a gone" true (stat fs2 "/a" = Error Ksim.Errno.ENOENT);
      check Alcotest.bool "b gone" true (stat fs2 "/b" = Error Ksim.Errno.ENOENT))
    images;
  (* With an fsync, the batch commits and survives. *)
  ignore (Kfs.Journalfs.apply fs Fs_spec.Fsync);
  let fs3 = Kfs.Journalfs.mount ~group_commit:true Kfs.Journalfs.Journaled dev in
  check Alcotest.bool "synced batch survives" true
    (stat fs3 "/a" = Ok (Fs_spec.Attr { kind = `File; size = 0 }))

let test_crash_mid_fsync_may_land_before_it () =
  (* A crash point at an [Fsync] strikes while the fsync is in flight:
     under group commit its images can still hold the pre-fsync state
     (the batch not yet committed), which the crash-safe spec allows.
     Judging them against the synced state alone is a false alarm. *)
  let cov =
    crash_run ~images:8 (Kharness.journalfs_group_commit ()) [ Fs_spec.Mkdir (p "/blob"); Fs_spec.Fsync ]
  in
  check_crash_safe "mkdir; fsync under group commit" cov;
  check Alcotest.bool "images at the fsync" true (cov.Krefine.crash_images > 1)

let test_direct_mode_convicted () =
  (* The same engine, no journal: some crash image must recover outside
     the crash-safe frontier on a trace with an early fsync. *)
  let crash_divergences =
    List.concat_map
      (fun seed ->
        let trace = (Fs_spec.Fsync :: trace_with_fsync) @ generated_trace seed 15 in
        (crash_run ~images:16 (Kharness.journalfs_direct ()) trace).Krefine.divergences)
      [ 1; 2; 3 ]
    |> List.filter (fun d ->
           match d.Krefine.mismatch with Krefine.Crash_divergence _ -> true | _ -> false)
  in
  check Alcotest.bool "unjournaled FS violates crash safety" true (crash_divergences <> [])

let test_journal_replay_counted () =
  (* Crash after un-checkpointed commits: remount must replay. *)
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/a")));
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/b")));
  let fs2 = Kfs.Journalfs.mount Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs) in
  match Kfs.Journalfs.journal_stats fs2 with
  | Some stats ->
      check Alcotest.bool "replayed transactions" true (stats.Kblock.Journal.replayed_txs >= 1)
  | None -> Alcotest.fail "journal missing"

let test_fsync_checkpoint_makes_replay_unnecessary () =
  let fs = Kfs.Journalfs.Journaled_fs.mkfs () in
  ignore (Kfs.Journalfs.apply fs (Fs_spec.Create (p "/a")));
  ignore (Kfs.Journalfs.apply fs Fs_spec.Fsync);
  let fs2 = Kfs.Journalfs.mount Kfs.Journalfs.Journaled (Kfs.Journalfs.device fs) in
  (match Kfs.Journalfs.journal_stats fs2 with
  | Some stats -> check Alcotest.int "nothing to replay" 0 stats.Kblock.Journal.replayed_txs
  | None -> Alcotest.fail "journal missing");
  check Alcotest.bool "state intact" true
    (Kfs.Journalfs.apply fs2 (Fs_spec.Stat (p "/a"))
    = Ok (Fs_spec.Attr { kind = `File; size = 0 }))

let test_crash_check_not_vacuous () =
  (* The [safeos crash-test] trace (seed 11, 25 ops, 16 images): a crash
     checker that sees little more than the bare media at each point
     proves nothing.  The write-back disk yields 235 images over 25
     points. *)
  let trace = generated_trace ~max_write:512 11 25 in
  let cov = crash_run ~images:16 journaled trace in
  check_crash_safe "crash-test trace" cov;
  if cov.Krefine.crash_images <= 4 * cov.Krefine.crash_points then
    Alcotest.failf "%d images over %d crash points: at most 4 per point" cov.Krefine.crash_images
      cov.Krefine.crash_points

(* Random traces, journaled mode, always crash-safe. *)
let prop_journaled_always_crash_safe =
  QCheck2.Test.make ~name:"journalfs crash-safe on random traces" ~count:15
    QCheck2.Gen.(int_range 10 999)
    (fun seed -> Krefine.is_clean (crash_run ~images:6 journaled (generated_trace seed 12)))

let () =
  Alcotest.run "krefine"
    [
      (* First: see [test_alloc_ceiling]. *)
      ( "alloc",
        [ Alcotest.test_case "allocation ceiling (words per state)" `Quick test_alloc_ceiling ] );
      ( "harnesses",
        [
          Alcotest.test_case "trace recording" `Quick test_trace_recording;
          Alcotest.test_case "journalfs refines Fs_spec" `Quick test_journalfs_refines;
          Alcotest.test_case "cowfs refines Fs_spec" `Quick test_cowfs_refines;
          Alcotest.test_case "microreboot refines Fs_spec" `Quick test_microreboot_refines;
          Alcotest.test_case "verdict deterministic" `Quick test_verdict_deterministic;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "pinned sweep: fingerprints and heap ceiling" `Quick
            test_pinned_sweep;
          Alcotest.test_case "at scale (KSIM_REFINE_FULL=1)" `Slow test_at_scale;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "lost rename: minimal counterexample" `Quick
            test_lost_rename_minimal_counterexample;
          Alcotest.test_case "replay-skip fault caught" `Quick test_replay_skip_fault_caught;
          Alcotest.test_case "missing-barrier mutant convicted" `Quick
            test_missing_barrier_convicted;
        ] );
      ( "exp-crash",
        Alcotest.test_case "journaled safe (fixed trace)" `Quick test_journaled_safe_fixed_trace
        :: Alcotest.test_case "journaled safe (generated)" `Quick
             test_journaled_safe_generated_traces
        :: Alcotest.test_case "group commit crash-safe" `Quick
             test_group_commit_safe_generated_traces
        :: Alcotest.test_case "group commit functional" `Quick test_group_commit_functional
        :: Alcotest.test_case "group commit loses whole batch" `Quick
             test_group_commit_crash_loses_whole_batch
        :: Alcotest.test_case "crash mid-fsync may land before it" `Quick
             test_crash_mid_fsync_may_land_before_it
        :: Alcotest.test_case "direct mode convicted" `Quick test_direct_mode_convicted
        :: Alcotest.test_case "replay counted" `Quick test_journal_replay_counted
        :: Alcotest.test_case "fsync checkpoint" `Quick test_fsync_checkpoint_makes_replay_unnecessary
        :: Alcotest.test_case "crash check not vacuous" `Quick test_crash_check_not_vacuous
        :: List.map QCheck_alcotest.to_alcotest [ prop_journaled_always_crash_safe ] );
    ]
