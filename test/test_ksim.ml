(* Tests for the kernel-simulation substrate: error codes, dynamic values,
   the manual allocator, locks, the scheduler, tracing, and the RNG. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* Errno ------------------------------------------------------------------ *)

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      match Ksim.Errno.of_code (Ksim.Errno.to_code e) with
      | Some e' -> check Alcotest.string "roundtrip" (Ksim.Errno.to_string e) (Ksim.Errno.to_string e')
      | None -> fail "of_code failed")
    Ksim.Errno.all

let test_errno_codes () =
  check Alcotest.int "ENOENT" 2 (Ksim.Errno.to_code Ksim.Errno.ENOENT);
  check Alcotest.int "EIO" 5 (Ksim.Errno.to_code Ksim.Errno.EIO);
  check Alcotest.int "EEXIST" 17 (Ksim.Errno.to_code Ksim.Errno.EEXIST);
  check Alcotest.int "EXDEV" 18 (Ksim.Errno.to_code Ksim.Errno.EXDEV);
  check Alcotest.int "EINVAL" 22 (Ksim.Errno.to_code Ksim.Errno.EINVAL)

let test_errno_unknown_code () =
  check Alcotest.bool "code 9999" true (Ksim.Errno.of_code 9999 = None)

let test_errno_bind () =
  let open Ksim.Errno in
  let r =
    let* x = ok 1 in
    let* y = ok 2 in
    ok (x + y)
  in
  check Alcotest.(result int string) "bind ok" (Ok 3)
    (Result.map_error to_string r);
  let r2 : int r =
    let* _ = error ENOENT in
    ok 1
  in
  check Alcotest.(result int string) "bind error" (Error "ENOENT")
    (Result.map_error to_string r2)

(* Dyn --------------------------------------------------------------------- *)

let int_key : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"test.int"
let str_key : string Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"test.string"

let test_dyn_roundtrip () =
  let d = Ksim.Dyn.inject int_key 42 in
  check Alcotest.(option int) "project" (Some 42) (Ksim.Dyn.project int_key d);
  check Alcotest.int "cast_exn" 42 (Ksim.Dyn.cast_exn int_key d)

let test_dyn_mismatch () =
  let d = Ksim.Dyn.inject int_key 42 in
  check Alcotest.(option string) "wrong key" None (Ksim.Dyn.project str_key d);
  match Ksim.Dyn.cast_exn str_key d with
  | _ -> fail "expected Type_confusion"
  | exception Ksim.Dyn.Type_confusion { expected; actual } ->
      check Alcotest.string "expected tag" "test.string" expected;
      check Alcotest.string "actual tag" "test.int" actual

let test_dyn_same_name_different_keys () =
  (* Two keys created with the same name must not unify: name is a label,
     identity is the witness. *)
  let k1 : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"dup" in
  let k2 : int Ksim.Dyn.Key.t = Ksim.Dyn.Key.create ~name:"dup" in
  let d = Ksim.Dyn.inject k1 7 in
  check Alcotest.(option int) "other key misses" None (Ksim.Dyn.project k2 d)

let test_dyn_null () =
  check Alcotest.bool "is_null" true (Ksim.Dyn.is_null Ksim.Dyn.null);
  check Alcotest.(option int) "project null" None (Ksim.Dyn.project int_key Ksim.Dyn.null);
  match Ksim.Dyn.cast_exn int_key Ksim.Dyn.null with
  | _ -> fail "expected Null_dereference"
  | exception Ksim.Dyn.Null_dereference -> ()

let test_errptr () =
  let open Ksim.Dyn.Errptr in
  let p = of_ptr (Ksim.Dyn.inject int_key 1) in
  let e = of_err Ksim.Errno.ENOENT in
  check Alcotest.bool "ptr not err" false (is_err p);
  check Alcotest.bool "err is err" true (is_err e);
  check Alcotest.int "ptr_err of err" 2 (ptr_err e);
  check Alcotest.int "ptr_err of ptr" 0 (ptr_err p);
  check Alcotest.int "deref ptr" 1 (Ksim.Dyn.cast_exn int_key (deref p));
  (match deref e with
  | _ -> fail "deref of ERR_PTR must oops"
  | exception Ksim.Dyn.Null_dereference -> ());
  check Alcotest.bool "to_result err" true (to_result e = Error Ksim.Errno.ENOENT)

(* Kmem -------------------------------------------------------------------- *)

let test_kmem_alloc_read_write () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"here" "hello" in
  check Alcotest.string "read" "hello" (Ksim.Kmem.read p);
  Ksim.Kmem.write p "world";
  check Alcotest.string "after write" "world" (Ksim.Kmem.read p);
  check Alcotest.int "live" 1 (Ksim.Kmem.live_count heap);
  Ksim.Kmem.free p;
  check Alcotest.int "live after free" 0 (Ksim.Kmem.live_count heap);
  check Alcotest.int "allocated" 1 (Ksim.Kmem.allocated heap);
  check Alcotest.int "freed" 1 (Ksim.Kmem.freed heap)

let test_kmem_use_after_free () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"site1" 5 in
  Ksim.Kmem.free p;
  (match Ksim.Kmem.read p with
  | _ -> fail "expected Use_after_free"
  | exception Ksim.Kmem.Use_after_free { site; _ } ->
      check Alcotest.string "site" "site1" site);
  check Alcotest.int "uaf counted" 1 (Ksim.Kmem.uaf_events heap)

let test_kmem_double_free () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"s" () in
  Ksim.Kmem.free p;
  (match Ksim.Kmem.free p with
  | _ -> fail "expected Double_free"
  | exception Ksim.Kmem.Double_free _ -> ());
  check Alcotest.int "df counted" 1 (Ksim.Kmem.double_free_events heap)

let test_kmem_nonstrict_write_after_free () =
  let heap = Ksim.Kmem.create ~strict:false ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"s" 1 in
  Ksim.Kmem.free p;
  Ksim.Kmem.write p 2 (* silently counted, like real C *);
  check Alcotest.int "uaf counted" 1 (Ksim.Kmem.uaf_events heap)

let test_kmem_leaks () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let _p1 = Ksim.Kmem.alloc heap ~site:"a" 1 in
  let p2 = Ksim.Kmem.alloc heap ~site:"b" 2 in
  Ksim.Kmem.free p2;
  match Ksim.Kmem.leaks heap with
  | [ { Ksim.Kmem.leak_site; _ } ] -> check Alcotest.string "leak site" "a" leak_site
  | l -> fail (Printf.sprintf "expected 1 leak, got %d" (List.length l))

let test_kmem_is_live () =
  let heap = Ksim.Kmem.create ~name:"t" () in
  let p = Ksim.Kmem.alloc heap ~site:"s" 0 in
  check Alcotest.bool "live" true (Ksim.Kmem.is_live p);
  Ksim.Kmem.free p;
  check Alcotest.bool "dead" false (Ksim.Kmem.is_live p)

(* No process-global structure may hold a heap: a dropped heap is
   garbage, and the events it saw still reach the export sink. *)
let[@inline never] dropped_heap () =
  let heap = Ksim.Kmem.create ~name:"kmem-gc-probe" () in
  let p = Ksim.Kmem.alloc heap ~site:"probe-uaf" 0 in
  Ksim.Kmem.free p;
  (match Ksim.Kmem.read p with _ -> () | exception Ksim.Kmem.Use_after_free _ -> ());
  let _leaked = Ksim.Kmem.alloc heap ~site:"probe-leak" 1 in
  ignore (Ksim.Kmem.leaks heap : Ksim.Kmem.leak list);
  let w = Weak.create 1 in
  Weak.set w 0 (Some heap);
  w

let test_kmem_heap_collectable () =
  let w = dropped_heap () in
  Gc.full_major ();
  check Alcotest.bool "heap collected after use" false (Weak.check w 0);
  let rows = List.filter (fun (_, h, _, _) -> h = "kmem-gc-probe") (Ksim.Kmem.exported_events ()) in
  check
    Alcotest.(list (pair string (pair string int)))
    "the collected heap's events are still exported"
    [ ("uaf", ("probe-uaf", 1)); ("leak", ("probe-leak", 1)) ]
    (List.map (fun (k, _, s, n) -> (k, (s, n))) rows)

(* Klock ------------------------------------------------------------------- *)

let test_lock_basic () =
  let l = Ksim.Klock.create ~name:"l" () in
  check Alcotest.bool "free" false (Ksim.Klock.held l);
  Ksim.Klock.acquire l;
  check Alcotest.bool "held" true (Ksim.Klock.held l);
  check Alcotest.bool "by self" true (Ksim.Klock.held_by_self l);
  Ksim.Klock.release l;
  check Alcotest.bool "released" false (Ksim.Klock.held l)

let test_lock_self_deadlock () =
  let l = Ksim.Klock.create ~name:"l" () in
  Ksim.Klock.acquire l;
  (match Ksim.Klock.acquire l with
  | _ -> fail "expected Self_deadlock"
  | exception Ksim.Klock.Self_deadlock _ -> ());
  Ksim.Klock.release l

let test_lock_release_by_nonholder () =
  let l = Ksim.Klock.create ~name:"l" () in
  match Ksim.Klock.release l with
  | _ -> fail "expected Not_holder"
  | exception Ksim.Klock.Not_holder _ -> ()

let test_with_lock_releases_on_exception () =
  let l = Ksim.Klock.create ~name:"l" () in
  (match Ksim.Klock.with_lock l (fun () -> failwith "boom") with
  | _ -> fail "expected failure"
  | exception Failure _ -> ());
  check Alcotest.bool "released after exn" false (Ksim.Klock.held l)

let test_guarded_race_detection () =
  let l = Ksim.Klock.create ~name:"l" () in
  let cell = Ksim.Klock.Guarded.create ~lock:l ~name:"c" 0 in
  (* Unlocked access: counted. *)
  Ksim.Klock.Guarded.set cell 1;
  check Alcotest.int "race recorded" 1 (Ksim.Klock.Guarded.races cell);
  (* Locked access: clean. *)
  Ksim.Klock.with_lock l (fun () -> Ksim.Klock.Guarded.set cell 2);
  check Alcotest.int "no extra race" 1 (Ksim.Klock.Guarded.races cell);
  (* unsafe_ accessors never count. *)
  check Alcotest.int "unsafe read" 2 (Ksim.Klock.Guarded.unsafe_get cell);
  check Alcotest.int "still 1 race" 1 (Ksim.Klock.Guarded.races cell)

let test_guarded_strict_raises () =
  let l = Ksim.Klock.create ~name:"l" () in
  let cell = Ksim.Klock.Guarded.create ~strict:true ~lock:l ~name:"c" 0 in
  match Ksim.Klock.Guarded.get cell with
  | _ -> fail "expected Data_race"
  | exception Ksim.Klock.Data_race { cell = name; _ } ->
      check Alcotest.string "cell name" "c" name

(* Lockdep ------------------------------------------------------------------- *)

let test_lockdep_consistent_order_clean () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  for _ = 1 to 3 do
    Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()))
  done;
  check Alcotest.int "no warnings" 0 (Ksim.Lockdep.warning_count dep);
  check Alcotest.bool "edge recorded" true (Ksim.Lockdep.edge_count dep >= 1)

let test_lockdep_inversion_detected () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  (* A -> B once... *)
  Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()));
  (* ...then B -> A: no deadlock happens (single thread), but the order
     inversion is reported immediately — lockdep's whole point. *)
  Ksim.Klock.with_lock b (fun () -> Ksim.Klock.with_lock a (fun () -> ()));
  check Alcotest.int "one warning" 1 (Ksim.Lockdep.warning_count dep);
  match Ksim.Lockdep.warnings dep with
  | [ w ] ->
      check Alcotest.string "acquiring A" "A" w.Ksim.Lockdep.acquiring;
      check Alcotest.bool "cycle mentions B" true (List.mem "B" w.Ksim.Lockdep.cycle)
  | _ -> fail "expected exactly one warning"

let test_lockdep_transitive_cycle () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  let c = Ksim.Klock.create ~lockdep:dep ~name:"C" () in
  Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()));
  Ksim.Klock.with_lock b (fun () -> Ksim.Klock.with_lock c (fun () -> ()));
  (* C -> A closes A -> B -> C -> A. *)
  Ksim.Klock.with_lock c (fun () -> Ksim.Klock.with_lock a (fun () -> ()));
  check Alcotest.bool "cycle found" true (Ksim.Lockdep.warning_count dep >= 1)

let test_lockdep_across_threads () =
  (* The classic AB/BA deadlock pattern, staged so it does NOT deadlock in
     this interleaving — lockdep still reports it. *)
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  let sched = Ksim.Kthread.create () in
  ignore
    (Ksim.Kthread.spawn sched ~name:"t1" (fun () ->
         Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()))));
  ignore
    (Ksim.Kthread.spawn sched ~name:"t2" (fun () ->
         Ksim.Klock.with_lock b (fun () -> Ksim.Klock.with_lock a (fun () -> ()))));
  Ksim.Kthread.run sched;
  check Alcotest.bool "reported" true (Ksim.Lockdep.warning_count dep >= 1)

let test_lockdep_reentrant_stack () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  (* Release out of acquisition order must still unwind the held stack. *)
  Ksim.Klock.acquire a;
  Ksim.Klock.acquire b;
  Ksim.Klock.release a;
  Ksim.Klock.release b;
  Ksim.Klock.with_lock b (fun () -> ());
  check Alcotest.int "no spurious warnings" 0 (Ksim.Lockdep.warning_count dep)

let test_lockdep_edges_export () =
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  let c = Ksim.Klock.create ~lockdep:dep ~name:"C" () in
  Ksim.Klock.with_lock a (fun () ->
      Ksim.Klock.with_lock b (fun () -> Ksim.Klock.with_lock c (fun () -> ())));
  (* nesting under A and B simultaneously records the transitive pairs too *)
  check
    Alcotest.(list (pair string string))
    "deterministic edge list"
    [ ("A", "B"); ("A", "C"); ("B", "C") ]
    (Ksim.Lockdep.edges dep);
  let dot = Ksim.Lockdep.dump_dot dep in
  check Alcotest.bool "dot names the graph" true
    (String.length dot > 0 && String.sub dot 0 16 = "digraph lockdep ");
  (* the wire format the kracer reconciliation reads back *)
  let path = Filename.temp_file "lockdep" ".txt" in
  Sys.remove path;
  Ksim.Lockdep.append_edges_to_file dep ~path;
  Ksim.Lockdep.append_edges_to_file dep ~path;
  let ic = open_in path in
  let rec slurp acc =
    match input_line ic with line -> slurp (line :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = slurp [] in
  close_in ic;
  check Alcotest.int "append mode accumulates" 6 (List.length lines);
  check Alcotest.string "held-acquired pairs, space separated" "A B" (List.hd lines)

let test_lockdep_release_out_of_order () =
  (* A held, B acquired, A released first: acquiring C now must record
     only B -> C — A is gone from the held stack despite being released
     out of LIFO order. *)
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  let c = Ksim.Klock.create ~lockdep:dep ~name:"C" () in
  Ksim.Klock.acquire a;
  Ksim.Klock.acquire b;
  Ksim.Klock.release a;
  Ksim.Klock.acquire c;
  Ksim.Klock.release c;
  Ksim.Klock.release b;
  check
    Alcotest.(list (pair string string))
    "no stale A -> C edge"
    [ ("A", "B"); ("B", "C") ]
    (Ksim.Lockdep.edges dep)

let test_lockdep_reacquire_after_release () =
  (* A -> B, full release, then B alone, then A alone: the second and
     third critical sections hold one lock each, so no inversion exists
     and no B -> A edge may appear. *)
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()));
  Ksim.Klock.with_lock b (fun () -> ());
  Ksim.Klock.with_lock a (fun () -> ());
  check Alcotest.int "no warnings" 0 (Ksim.Lockdep.warning_count dep);
  check
    Alcotest.(list (pair string string))
    "only the nested edge" [ ("A", "B") ] (Ksim.Lockdep.edges dep)

let test_lockdep_trylock_orders () =
  (* A successful try_acquire participates in the order graph exactly
     like a blocking acquire: B -> A via trylock then A -> B blocking is
     an inversion. *)
  let dep = Ksim.Lockdep.create () in
  let a = Ksim.Klock.create ~lockdep:dep ~name:"A" () in
  let b = Ksim.Klock.create ~lockdep:dep ~name:"B" () in
  Ksim.Klock.with_lock b (fun () ->
      check Alcotest.bool "trylock succeeds uncontended" true (Ksim.Klock.try_acquire a);
      Ksim.Klock.release a);
  check
    Alcotest.(list (pair string string))
    "trylock recorded an edge" [ ("B", "A") ] (Ksim.Lockdep.edges dep);
  Ksim.Klock.with_lock a (fun () -> Ksim.Klock.with_lock b (fun () -> ()));
  check Alcotest.int "inversion against the trylock edge reported" 1
    (Ksim.Lockdep.warning_count dep)

(* Kthread ------------------------------------------------------------------ *)

let test_scheduler_runs_all () =
  let sched = Ksim.Kthread.create () in
  let log = ref [] in
  for i = 1 to 3 do
    ignore
      (Ksim.Kthread.spawn sched ~name:(string_of_int i) (fun () ->
           log := i :: !log;
           Ksim.Kthread.yield ();
           log := (10 * i) :: !log))
  done;
  Ksim.Kthread.run sched;
  check Alcotest.(list int) "round robin order" [ 1; 2; 3; 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "no failures" 0 (List.length (Ksim.Kthread.failures sched))

let test_scheduler_seeded_deterministic () =
  let run seed =
    let sched = Ksim.Kthread.create ~seed () in
    let log = ref [] in
    for i = 1 to 4 do
      ignore
        (Ksim.Kthread.spawn sched ~name:(string_of_int i) (fun () ->
             log := i :: !log;
             Ksim.Kthread.yield ();
             log := i :: !log))
    done;
    Ksim.Kthread.run sched;
    List.rev !log
  in
  check Alcotest.(list int) "same seed same schedule" (run 7) (run 7);
  (* A different seed typically gives a different interleaving; at minimum
     the multiset of events is preserved. *)
  check Alcotest.int "all events" 8 (List.length (run 8))

let test_scheduler_collects_failures () =
  let sched = Ksim.Kthread.create () in
  ignore (Ksim.Kthread.spawn sched ~name:"ok" (fun () -> ()));
  ignore (Ksim.Kthread.spawn sched ~name:"bad" (fun () -> failwith "oops"));
  Ksim.Kthread.run sched;
  match Ksim.Kthread.failures sched with
  | [ { Ksim.Kthread.failed_name; _ } ] -> check Alcotest.string "name" "bad" failed_name
  | l -> fail (Printf.sprintf "expected 1 failure, got %d" (List.length l))

let test_scheduler_lock_handoff () =
  (* Two threads contend on a lock; the spin-by-yield must hand over. *)
  let sched = Ksim.Kthread.create () in
  let l = Ksim.Klock.create ~name:"shared" () in
  let order = ref [] in
  ignore
    (Ksim.Kthread.spawn sched ~name:"a" (fun () ->
         Ksim.Klock.with_lock l (fun () ->
             order := "a-in" :: !order;
             Ksim.Kthread.yield ();
             order := "a-out" :: !order)));
  ignore
    (Ksim.Kthread.spawn sched ~name:"b" (fun () ->
         Ksim.Klock.with_lock l (fun () -> order := "b" :: !order)));
  Ksim.Kthread.run sched;
  check Alcotest.(list string) "critical sections do not interleave"
    [ "a-in"; "a-out"; "b" ] (List.rev !order);
  check Alcotest.bool "contention seen" true (Ksim.Klock.contentions l >= 1)

let test_scheduler_livelock_detected () =
  let sched = Ksim.Kthread.create ~max_steps:100 () in
  ignore
    (Ksim.Kthread.spawn sched ~name:"spin" (fun () ->
         while true do
           Ksim.Kthread.yield ()
         done));
  match Ksim.Kthread.run sched with
  | _ -> fail "expected Livelock"
  | exception Ksim.Kthread.Livelock _ -> ()

let test_lost_update_race () =
  (* The classic unsynchronized increment: with yields between read and
     write, updates are lost — the bug ownership safety rules out. *)
  let sched = Ksim.Kthread.create () in
  let counter = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Ksim.Kthread.spawn sched ~name:"inc" (fun () ->
           let v = !counter in
           Ksim.Kthread.yield ();
           counter := v + 1))
  done;
  Ksim.Kthread.run sched;
  check Alcotest.int "updates lost" 1 !counter

(* Ktrace ------------------------------------------------------------------- *)

let test_trace_basic () =
  let tr = Ksim.Ktrace.create ~capacity:3 () in
  Ksim.Ktrace.emit tr ~category:"a" "one";
  Ksim.Ktrace.emitf tr ~category:"b" "two %d" 2;
  check Alcotest.int "count a" 1 (Ksim.Ktrace.count tr ~category:"a");
  check Alcotest.int "total" 2 (Ksim.Ktrace.total tr);
  Ksim.Ktrace.emit tr ~category:"a" "three";
  Ksim.Ktrace.emit tr ~category:"a" "four" (* evicts "one" *);
  check Alcotest.int "ring keeps 3" 3 (List.length (Ksim.Ktrace.events tr));
  check Alcotest.int "total still counts" 4 (Ksim.Ktrace.total tr);
  Ksim.Ktrace.clear tr;
  check Alcotest.int "cleared" 0 (Ksim.Ktrace.total tr)

(* Rng ----------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Ksim.Rng.of_int 1 and b = Ksim.Rng.of_int 1 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Ksim.Rng.int a 1000) (Ksim.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Ksim.Rng.of_int 1 in
  let c = Ksim.Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let xs = List.init 10 (fun _ -> Ksim.Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Ksim.Rng.int c 1_000_000) in
  check Alcotest.bool "streams differ" true (xs <> ys)

(* Golden outputs pinned from the SplitMix64 reference: any change to the
   state representation must keep every stream bit-identical, because
   every same-seed fingerprint in the repo is a function of them. *)
let test_rng_golden () =
  let hex b =
    String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))
  in
  List.iter
    (fun (seed, nexts, ints, floats, split, after, bytes) ->
      let r = Ksim.Rng.create seed in
      let name what = Printf.sprintf "seed %Ld: %s" seed what in
      check Alcotest.(list int64) (name "next") nexts (List.init 4 (fun _ -> Ksim.Rng.next r));
      check Alcotest.(list int) (name "int 1000") ints (List.init 4 (fun _ -> Ksim.Rng.int r 1000));
      List.iter
        (fun f -> check Alcotest.bool (name (Printf.sprintf "float %h" f)) true (Ksim.Rng.float r = f))
        floats;
      let s = Ksim.Rng.split r in
      check Alcotest.int64 (name "split stream") split (Ksim.Rng.next s);
      check Alcotest.int64 (name "parent after split") after (Ksim.Rng.next r);
      check Alcotest.string (name "bytes 8") bytes (hex (Ksim.Rng.bytes r 8)))
    [
      ( 0L,
        [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L; -537132696929009172L ],
        [ 686; 522; 728; 735 ],
        [ 0x1.f72bc4820e4c4p-3; 0x1.e77091186d196p-1; 0x1.95fbb374f2c4ep-2 ],
        1610036449582822964L,
        -8781561602181964933L,
        "4b462a95e1d96bb5" );
      ( 42L,
        [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L; 6349198060258255764L ],
        [ 812; 265; 231; 977 ],
        [ 0x1.5c16e1dc2cf5ep-2; 0x1.3ca9ae7052feep-1; 0x1.a3a39253bad8cp-3 ],
        -369981776645749888L,
        -8976257307478440218L,
        "6db7fc9d878118fa" );
      ( 0x0123456789ABCDEFL,
        [ 1547611027431991965L; -3066016094752747373L; 3427440727199435966L; -6713713436388857876L ],
        [ 938; 436; 625; 252 ],
        [ 0x1.f309b69de29fbp-1; 0x1.3406832e5b9f4p-3; 0x1.9b71939b34c5bp-1 ],
        2260131620894300375L,
        -8162064372723124409L,
        "4e73fd564120ebff" );
    ]

let rng_int_in_bounds =
  QCheck2.Test.make ~name:"rng.int always within bounds" ~count:500
    QCheck2.Gen.(pair int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Ksim.Rng.of_int seed in
      let v = Ksim.Rng.int rng bound in
      v >= 0 && v < bound)

let rng_float_in_unit =
  QCheck2.Test.make ~name:"rng.float in [0,1)" ~count:500 QCheck2.Gen.int (fun seed ->
      let rng = Ksim.Rng.of_int seed in
      let f = Ksim.Rng.float rng in
      f >= 0.0 && f < 1.0)

let rng_shuffle_permutation =
  QCheck2.Test.make ~name:"rng.shuffle is a permutation" ~count:200
    QCheck2.Gen.(pair int (list_size (int_range 0 30) int))
    (fun (seed, xs) ->
      let rng = Ksim.Rng.of_int seed in
      List.sort compare (Ksim.Rng.shuffle rng xs) = List.sort compare xs)

let rng_pick_member =
  QCheck2.Test.make ~name:"rng.pick returns a member" ~count:200
    QCheck2.Gen.(pair int (list_size (int_range 1 20) int))
    (fun (seed, xs) ->
      let rng = Ksim.Rng.of_int seed in
      List.mem (Ksim.Rng.pick rng xs) xs)

(* Failpoint ------------------------------------------------------------------ *)

let test_failpoint_interval_and_times () =
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:1 () in
  Ksim.Failpoint.configure fp "site" ~enabled:true ~interval:3 ~times:2 ();
  let fired = List.init 12 (fun _ -> Ksim.Failpoint.should_fail fp "site") in
  (* Hits 3 and 6 inject; then the times budget is gone. *)
  check Alcotest.(list bool) "every 3rd hit, twice"
    [ false; false; true; false; false; true; false; false; false; false; false; false ]
    fired;
  check Alcotest.int "hits counted" 12 (Ksim.Failpoint.hits fp "site");
  check Alcotest.int "injections counted" 2 (Ksim.Failpoint.injected fp "site");
  check Alcotest.int "total" 2 (Ksim.Failpoint.total_injected fp)

let test_failpoint_disabled_and_heal () =
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:1 () in
  (* Registered but never enabled: zero cost path, never fires. *)
  check Alcotest.bool "disabled never fires" false (Ksim.Failpoint.should_fail fp "quiet");
  Ksim.Failpoint.configure fp "loud" ~enabled:true ();
  check Alcotest.bool "enabled fires" true (Ksim.Failpoint.should_fail fp "loud");
  Ksim.Failpoint.disable_all fp;
  check Alcotest.bool "healed" false (Ksim.Failpoint.should_fail fp "loud");
  check Alcotest.bool "bad probability rejected" true
    (try
       Ksim.Failpoint.configure fp "loud" ~probability:1.5 ();
       false
     with Invalid_argument _ -> true)

let test_failpoint_probability_replayable () =
  let run () =
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:77 () in
    Ksim.Failpoint.configure fp "p" ~enabled:true ~probability:0.4 ();
    let fired = List.init 64 (fun _ -> Ksim.Failpoint.should_fail fp "p") in
    (fired, Ksim.Failpoint.schedule fp)
  in
  let fired_a, sched_a = run () in
  let fired_b, sched_b = run () in
  check Alcotest.(list bool) "same seed, same draws" fired_a fired_b;
  check Alcotest.(list string) "same schedule fingerprint" sched_a sched_b;
  let hits = List.length (List.filter Fun.id fired_a) in
  check Alcotest.bool "probability gate actually gates" true (hits > 0 && hits < 64);
  (* The per-site stream comes from (seed, name): registration order of
     other sites must not perturb it. *)
  let fp2 = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:77 () in
  ignore (Ksim.Failpoint.register fp2 "aardvark");
  ignore (Ksim.Failpoint.register fp2 "zebra");
  Ksim.Failpoint.configure fp2 "p" ~enabled:true ~probability:0.4 ();
  let fired_c = List.init 64 (fun _ -> Ksim.Failpoint.should_fail fp2 "p") in
  check Alcotest.(list bool) "independent of registration order" fired_a fired_c

(* [fire] on a kept site is [should_fail] by name: same stream, same
   counters, same schedule text, and configuring the site by name after
   it was kept reaches the kept record. *)
let test_failpoint_fire_is_should_fail () =
  let run use_site =
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:77 () in
    let site = Ksim.Failpoint.register fp "dev.read-eio" in
    Ksim.Failpoint.configure fp "dev.read-eio" ~enabled:true ~probability:0.4 ~interval:2
      ~times:5 ();
    let fired =
      List.init 64 (fun _ ->
          if use_site then Ksim.Failpoint.fire fp site
          else Ksim.Failpoint.should_fail fp "dev.read-eio")
    in
    (fired, Ksim.Failpoint.hits fp "dev.read-eio", Ksim.Failpoint.injected fp "dev.read-eio",
     Ksim.Failpoint.schedule fp)
  in
  let fired_a, hits_a, inj_a, sched_a = run false in
  let fired_b, hits_b, inj_b, sched_b = run true in
  check Alcotest.(list bool) "same draws" fired_a fired_b;
  check Alcotest.int "same hits" hits_a hits_b;
  check Alcotest.int "same injections" inj_a inj_b;
  check Alcotest.bool "some injections" true (inj_b > 0);
  check Alcotest.(list string) "same schedule" sched_a sched_b

(* The knobs interact: [interval] gates eligibility by hit count, [times]
   budgets the injections, and exhaustion is observable and reversible by
   re-configuring. *)
let test_failpoint_interval_times_exhaustion () =
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:9 () in
  Ksim.Failpoint.configure fp "s" ~enabled:true ~interval:2 ~times:3 ();
  let fired = List.init 10 (fun _ -> Ksim.Failpoint.should_fail fp "s") in
  (* Eligible hits are 2, 4, 6, 8, 10; the times budget stops after three. *)
  check Alcotest.(list bool) "interval x times"
    [ false; true; false; true; false; true; false; false; false; false ]
    fired;
  check Alcotest.int "budget spent" 3 (Ksim.Failpoint.injected fp "s");
  (* Topping the budget back up resumes on the same hit parity: the next
     eligible hit is 12. *)
  Ksim.Failpoint.configure fp "s" ~times:1 ();
  let fired = List.init 2 (fun _ -> Ksim.Failpoint.should_fail fp "s") in
  check Alcotest.(list bool) "resumes on parity" [ false; true ] fired;
  check Alcotest.int "budget spent again" 4 (Ksim.Failpoint.injected fp "s")

let test_failpoint_reconfigure_after_disable_all () =
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:9 () in
  Ksim.Failpoint.configure fp "s" ~enabled:true ();
  check Alcotest.bool "fires" true (Ksim.Failpoint.should_fail fp "s");
  Ksim.Failpoint.disable_all fp;
  check Alcotest.bool "healed" false (Ksim.Failpoint.should_fail fp "s");
  (* disable_all keeps hits and streams: re-enabling with interval 3 is
     judged against the cumulative hit count (2 so far; next eligible is
     hit 3). *)
  Ksim.Failpoint.configure fp "s" ~enabled:true ~interval:3 ();
  let fired = List.init 4 (fun _ -> Ksim.Failpoint.should_fail fp "s") in
  check Alcotest.(list bool) "cumulative hits drive interval"
    [ true; false; false; true ] fired;
  check Alcotest.int "hits kept across heal" 6 (Ksim.Failpoint.hits fp "s")

let test_failpoint_streams_per_site () =
  (* Each site's probability stream is a function of (seed, name) only:
     two registries with the same seed but opposite registration orders
     agree draw-for-draw on every site. *)
  let draws fp name = List.init 32 (fun _ -> Ksim.Failpoint.should_fail fp name) in
  let fp_ab = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:21 () in
  Ksim.Failpoint.configure fp_ab "alpha" ~enabled:true ~probability:0.5 ();
  Ksim.Failpoint.configure fp_ab "beta" ~enabled:true ~probability:0.5 ();
  let alpha_1 = draws fp_ab "alpha" in
  let beta_1 = draws fp_ab "beta" in
  let fp_ba = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:21 () in
  Ksim.Failpoint.configure fp_ba "beta" ~enabled:true ~probability:0.5 ();
  Ksim.Failpoint.configure fp_ba "alpha" ~enabled:true ~probability:0.5 ();
  (* Interleave in the other order too: draws must not depend on it. *)
  let beta_2 = draws fp_ba "beta" in
  let alpha_2 = draws fp_ba "alpha" in
  check Alcotest.(list bool) "alpha agrees" alpha_1 alpha_2;
  check Alcotest.(list bool) "beta agrees" beta_1 beta_2;
  check Alcotest.bool "sites differ from each other" true (alpha_1 <> beta_1)

let test_failpoint_publish () =
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:3 () in
  Ksim.Failpoint.configure fp "s" ~enabled:true ();
  ignore (Ksim.Failpoint.should_fail fp "s");
  let stats = Ksim.Kstats.create () in
  Ksim.Failpoint.publish fp stats;
  check Alcotest.int "hits published" 1 (Ksim.Kstats.get stats "s.hits");
  check Alcotest.int "injected published" 1 (Ksim.Kstats.get stats "s.injected")

(* Kstats --------------------------------------------------------------------- *)

let test_kstats () =
  let s = Ksim.Kstats.create () in
  Ksim.Kstats.incr s "x";
  Ksim.Kstats.incr ~by:4 s "x";
  Ksim.Kstats.incr s "y";
  check Alcotest.int "x" 5 (Ksim.Kstats.get s "x");
  check Alcotest.int "missing" 0 (Ksim.Kstats.get s "z");
  check Alcotest.(list (pair string int)) "sorted" [ ("x", 5); ("y", 1) ] (Ksim.Kstats.to_list s);
  Ksim.Kstats.reset s;
  check Alcotest.int "reset" 0 (Ksim.Kstats.get s "x")

let test_kstats_snapshot_diff () =
  let s = Ksim.Kstats.create () in
  Ksim.Kstats.incr ~by:3 s "kept";
  Ksim.Kstats.incr ~by:2 s "grown";
  let before = Ksim.Kstats.snapshot s in
  Ksim.Kstats.incr ~by:5 s "grown";
  Ksim.Kstats.incr s "fresh";
  let after = Ksim.Kstats.snapshot s in
  (* Only the counters that moved, with exact deltas; keys absent before
     count from zero. *)
  check Alcotest.(list (pair string int)) "diff"
    [ ("fresh", 1); ("grown", 5) ]
    (Ksim.Kstats.diff ~before ~after);
  check Alcotest.int "delta grown" 5 (Ksim.Kstats.delta ~before ~after "grown");
  check Alcotest.int "delta kept" 0 (Ksim.Kstats.delta ~before ~after "kept");
  check Alcotest.int "delta missing" 0 (Ksim.Kstats.delta ~before ~after "nope")

(* Supervisor ------------------------------------------------------------------ *)

(* A supervised module that panics on demand: [bad] arms the next call. *)
let sup_module () =
  let bad = ref false in
  let f () =
    if !bad then begin
      bad := false;
      raise (Ksim.Supervisor.Module_panic "test.site")
    end
    else Ok "ok"
  in
  (bad, f)

let test_supervisor_contains_and_reboots () =
  let bad, f = sup_module () in
  let trace = Ksim.Ktrace.create () in
  let sup =
    Ksim.Supervisor.create ~trace ~restart:(fun () -> Ok ()) ~name:"mod" ()
  in
  check Alcotest.string "healthy call passes" "ok"
    (Result.get_ok (Ksim.Supervisor.call sup f));
  bad := true;
  (* The panic is contained to EIO — never an uncaught exception. *)
  check Alcotest.bool "oops contained" true (Ksim.Supervisor.call sup f = Error Ksim.Errno.EIO);
  check Alcotest.bool "state oopsed" true (Ksim.Supervisor.state sup = Ksim.Supervisor.Oopsed);
  (* Before the backoff deadline the mount quiesces: calls drain EINTR. *)
  check Alcotest.bool "drains EINTR" true (Ksim.Supervisor.call sup f = Error Ksim.Errno.EINTR);
  (* First call past the deadline microreboots and then serves. *)
  check Alcotest.string "recovered" "ok" (Result.get_ok (Ksim.Supervisor.call sup f));
  check Alcotest.bool "healthy again" true
    (Ksim.Supervisor.state sup = Ksim.Supervisor.Healthy);
  check Alcotest.int "epoch bumped" 1 (Ksim.Supervisor.epoch sup);
  check Alcotest.int "one oops" 1 (Ksim.Supervisor.oopses sup);
  check Alcotest.int "one restart" 1 (Ksim.Supervisor.restarts sup);
  check Alcotest.bool "recovery latency on the simulated clock" true
    (Ksim.Supervisor.last_recovery_ns sup > 0)

let test_supervisor_stale_epochs () =
  let _, f = sup_module () in
  let sup =
    Ksim.Supervisor.create ~trace:(Ksim.Ktrace.create ()) ~restart:(fun () -> Ok ())
      ~name:"mod" ()
  in
  let handle = Ksim.Supervisor.epoch sup in
  check Alcotest.bool "fresh handle valid" true (Ksim.Supervisor.validate sup handle = Ok ());
  (* Oops and recover. *)
  check Alcotest.bool "oops" true
    (Ksim.Supervisor.call sup (fun () -> raise Exit) = Error Ksim.Errno.EIO);
  check Alcotest.bool "quiesce" true (Ksim.Supervisor.call sup f = Error Ksim.Errno.EINTR);
  check Alcotest.bool "reboot" true (Ksim.Supervisor.call sup f = Ok "ok");
  (* The pre-oops handle now belongs to a dead generation. *)
  check Alcotest.bool "stale handle" true
    (Ksim.Supervisor.validate sup handle = Error Ksim.Errno.ESTALE);
  check Alcotest.bool "fresh handle ok" true
    (Ksim.Supervisor.validate sup (Ksim.Supervisor.epoch sup) = Ok ());
  check Alcotest.int "stale rejections counted" 1 (Ksim.Supervisor.stale_rejected sup)

let test_supervisor_escalates_to_failed () =
  let policy =
    { Ksim.Supervisor.restart_budget = 2; backoff_base = 100; backoff_cap = 100; op_cost = 100 }
  in
  let trace = Ksim.Ktrace.create () in
  let sup = Ksim.Supervisor.create ~policy ~trace ~restart:(fun () -> Ok ()) ~name:"mod" () in
  let incidents_before = Ksim.Ktrace.count Ksim.Ktrace.global ~category:"incident" in
  let transitions = ref [] in
  Ksim.Supervisor.set_observer sup (fun _ to_ -> transitions := to_ :: !transitions);
  let always_panics () = raise (Ksim.Supervisor.Module_panic "test.site") in
  (* Drive it to budget exhaustion: every recovery immediately re-oopses.
     No call may ever raise — containment holds through escalation. *)
  let results = List.init 8 (fun _ -> Ksim.Supervisor.call sup always_panics) in
  check Alcotest.bool "escalated" true (Ksim.Supervisor.state sup = Ksim.Supervisor.Failed);
  check Alcotest.int "escalation counted" 1 (Ksim.Supervisor.escalations sup);
  check Alcotest.int "budget spent exactly" 2 (Ksim.Supervisor.restarts sup);
  (* Degraded mode answers EIO forever after. *)
  check Alcotest.bool "degraded EIO" true
    (Ksim.Supervisor.call sup (fun () -> Ok "up") = Error Ksim.Errno.EIO);
  check Alcotest.bool "only errno results" true
    (List.for_all
       (fun r -> r = Error Ksim.Errno.EIO || r = Error Ksim.Errno.EINTR)
       results);
  check Alcotest.bool "escalation hit the audit trail" true
    (Ksim.Ktrace.count Ksim.Ktrace.global ~category:"incident" > incidents_before);
  check Alcotest.bool "observer saw Failed" true
    (List.mem Ksim.Supervisor.Failed !transitions)

let test_supervisor_failed_restart_burns_budget () =
  let policy =
    { Ksim.Supervisor.restart_budget = 1; backoff_base = 100; backoff_cap = 100; op_cost = 100 }
  in
  let sup =
    Ksim.Supervisor.create ~policy ~trace:(Ksim.Ktrace.create ())
      ~restart:(fun () -> Error "device gone") ~name:"mod" ()
  in
  check Alcotest.bool "oops" true
    (Ksim.Supervisor.call sup (fun () -> raise Exit) = Error Ksim.Errno.EIO);
  (* The restart itself fails: budget burns, escalation follows. *)
  check Alcotest.bool "failed restart degrades" true
    (Ksim.Supervisor.call sup (fun () -> Ok ()) = Error Ksim.Errno.EIO);
  check Alcotest.bool "failed" true (Ksim.Supervisor.state sup = Ksim.Supervisor.Failed);
  check Alcotest.int "budget spent" 1 (Ksim.Supervisor.restarts sup)

let test_supervisor_replayable () =
  (* The whole lifecycle is a function of the call sequence: two fresh
     supervisors driven identically agree on every observable. *)
  let drive () =
    let bad, f = sup_module () in
    let sup =
      Ksim.Supervisor.create ~trace:(Ksim.Ktrace.create ()) ~restart:(fun () -> Ok ())
        ~name:"mod" ()
    in
    let results =
      List.init 12 (fun i ->
          if i = 2 || i = 7 then bad := true;
          Ksim.Supervisor.call sup f)
    in
    ( results,
      Ksim.Supervisor.epoch sup,
      Ksim.Supervisor.clock sup,
      Ksim.Supervisor.oopses sup,
      Ksim.Supervisor.total_recovery_ns sup )
  in
  let a = drive () in
  let b = drive () in
  check Alcotest.bool "bit-identical replay" true (a = b)

let test_supervisor_publish () =
  let stats = Ksim.Kstats.create () in
  let sup =
    Ksim.Supervisor.create ~trace:(Ksim.Ktrace.create ()) ~stats
      ~restart:(fun () -> Ok ()) ~name:"fs" ()
  in
  check Alcotest.bool "oops" true
    (Ksim.Supervisor.call sup (fun () -> raise Exit) = Error Ksim.Errno.EIO);
  check Alcotest.int "live counter" 1 (Ksim.Kstats.get stats "supervisor.oopses");
  Ksim.Supervisor.publish sup stats;
  check Alcotest.int "named counter" 1 (Ksim.Kstats.get stats "supervisor.fs.oopses")

(* Hist: the HdrHistogram-lite percentile sketch ------------------------- *)

let test_hist_percentiles () =
  let h = Ksim.Hist.create () in
  for v = 1 to 1000 do
    Ksim.Hist.record h v
  done;
  check Alcotest.int "count" 1000 (Ksim.Hist.count h);
  check Alcotest.int "min exact" 1 (Ksim.Hist.min_value h);
  check Alcotest.int "max exact" 1000 (Ksim.Hist.max_value h);
  let within pct want got =
    let err = abs (got - want) in
    if float_of_int err > (0.035 *. float_of_int want) +. 1.0 then
      fail (Printf.sprintf "%s: want ~%d got %d" pct want got)
  in
  within "p50" 500 (Ksim.Hist.percentile h 50.0);
  within "p95" 950 (Ksim.Hist.percentile h 95.0);
  within "p99" 990 (Ksim.Hist.percentile h 99.0);
  check Alcotest.int "p100 clamps to observed max" 1000 (Ksim.Hist.percentile h 100.0);
  within "mean" 500 (int_of_float (Ksim.Hist.mean h));
  let s = Ksim.Hist.summarize h in
  check Alcotest.bool "summary ordered" true
    (s.Ksim.Hist.p50 <= s.Ksim.Hist.p95 && s.p95 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max)

let test_hist_merge () =
  let a = Ksim.Hist.create () and b = Ksim.Hist.create () in
  List.iter (Ksim.Hist.record a) [ 10; 20; 30 ];
  List.iter (Ksim.Hist.record b) [ 40; 50000 ];
  Ksim.Hist.merge_into ~dst:a b;
  check Alcotest.int "merged count" 5 (Ksim.Hist.count a);
  check Alcotest.int "merged min" 10 (Ksim.Hist.min_value a);
  check Alcotest.int "merged max" 50000 (Ksim.Hist.max_value a);
  check Alcotest.int "merged total" 50100 (Ksim.Hist.total a)

let test_kstats_hist_snapshot () =
  let stats = Ksim.Kstats.create () in
  List.iter (Ksim.Kstats.observe stats "lat") [ 100; 200; 300 ];
  let l = Ksim.Kstats.to_list stats in
  check Alcotest.int "derived count entry" 3 (List.assoc "lat#count" l);
  check Alcotest.int "derived min entry" 100 (List.assoc "lat#min" l);
  check Alcotest.bool "derived p99 entry present" true (List.mem_assoc "lat#p99" l)

(* Supervisor recovery aggregation (over all microreboots) ---------------- *)

let test_supervisor_recovery_aggregation () =
  let bad, f = sup_module () in
  let stats = Ksim.Kstats.create () in
  let sup =
    Ksim.Supervisor.create ~trace:(Ksim.Ktrace.create ()) ~stats
      ~restart:(fun () -> Ok ()) ~name:"mod" ()
  in
  (* Three oops/recover cycles; each recovery waits out a longer backoff,
     so the histogram sees three distinct latencies. *)
  for _ = 1 to 3 do
    bad := true;
    let rec drain n =
      if n > 200 then fail "never recovered";
      match Ksim.Supervisor.call sup f with Ok _ -> () | Error _ -> drain (n + 1)
    in
    drain 0
  done;
  let s = Ksim.Supervisor.recovery sup in
  check Alcotest.int "three recoveries aggregated" 3 s.Ksim.Hist.count;
  check Alcotest.bool "min positive" true (s.Ksim.Hist.min > 0);
  check Alcotest.bool "ordered" true
    (s.Ksim.Hist.min <= s.Ksim.Hist.p50 && s.Ksim.Hist.p50 <= s.Ksim.Hist.p99
   && s.Ksim.Hist.p99 <= s.Ksim.Hist.max);
  check Alcotest.bool "max saw the longest backoff" true
    (s.Ksim.Hist.max > s.Ksim.Hist.min);
  (* Live observation into the stats table, and publish under the name. *)
  check Alcotest.int "live hist entry" 3
    (List.assoc "supervisor.recovery_ns#count" (Ksim.Kstats.to_list stats));
  Ksim.Supervisor.publish sup stats;
  check Alcotest.int "published hist entry" 3
    (List.assoc "supervisor.mod.recovery_ns#count" (Ksim.Kstats.to_list stats))

(* Storm composition (satellite: composed failpoint schedules) ------------ *)

let test_storm_overlap_composition () =
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:1 () in
  let storm = Ksim.Storm.create ~fp () in
  Ksim.Storm.add storm
    [ { Ksim.Storm.site = "s"; start = 0; stop = 10; probability = 0.5; times = 3 } ];
  Ksim.Storm.add storm
    [ { Ksim.Storm.site = "s"; start = 5; stop = 15; probability = 0.5; times = 4 } ];
  (* In the overlap: union probability, summed finite budgets. *)
  (match Ksim.Storm.active storm 7 with
  | [ ("s", p, budget) ] ->
      check (Alcotest.float 1e-9) "union probability" 0.75 p;
      check Alcotest.int "summed budget" 7 budget
  | l -> fail (Printf.sprintf "overlap: %d active sites" (List.length l)));
  (* Outside the overlap only the second burst covers. *)
  (match Ksim.Storm.active storm 12 with
  | [ ("s", p, budget) ] ->
      check (Alcotest.float 1e-9) "single probability" 0.5 p;
      check Alcotest.int "single budget" 4 budget
  | _ -> fail "post-overlap");
  check Alcotest.int "past the storm: nothing active" 0
    (List.length (Ksim.Storm.active storm 20));
  (* tick applies the composition to the registry. *)
  Ksim.Storm.tick storm 7;
  let site = List.find (fun s -> s.Ksim.Failpoint.name = "s") (Ksim.Failpoint.sites fp) in
  check Alcotest.bool "site enabled in window" true site.Ksim.Failpoint.enabled;
  check (Alcotest.float 1e-9) "site probability composed" 0.75
    site.Ksim.Failpoint.probability;
  Ksim.Storm.tick storm 20;
  check Alcotest.bool "site disabled past the storm" false site.Ksim.Failpoint.enabled;
  (* Unlimited wins over finite budgets. *)
  Ksim.Storm.add storm
    [ { Ksim.Storm.site = "s"; start = 0; stop = 10; probability = 0.1; times = -1 } ];
  match Ksim.Storm.active storm 7 with
  | [ ("s", _, budget) ] -> check Alcotest.int "unlimited wins" (-1) budget
  | _ -> fail "unlimited compose"

let test_storm_disable_mid_burst () =
  let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:2 () in
  let storm = Ksim.Storm.create ~fp () in
  Ksim.Storm.add storm
    [ { Ksim.Storm.site = "s"; start = 0; stop = 100; probability = 1.0; times = -1 } ];
  Ksim.Storm.tick storm 10;
  check Alcotest.bool "armed mid-burst" true (Ksim.Failpoint.should_fail fp "s");
  Ksim.Storm.disable storm;
  check Alcotest.bool "disable kills the site" false (Ksim.Failpoint.should_fail fp "s");
  (* A later tick re-arms whatever its window says: permanent shutdown is
     simply not ticking again. *)
  Ksim.Storm.tick storm 11;
  check Alcotest.bool "tick re-arms inside the window" true
    (Ksim.Failpoint.should_fail fp "s")

let test_storm_replay_determinism () =
  let drive () =
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:77 () in
    let storm = Ksim.Storm.create ~fp () in
    Ksim.Storm.add storm
      [
        { Ksim.Storm.site = "a"; start = 5; stop = 40; probability = 0.4; times = -1 };
        { Ksim.Storm.site = "b"; start = 20; stop = 60; probability = 0.3; times = 5 };
      ];
    Ksim.Storm.add storm
      [ { Ksim.Storm.site = "a"; start = 30; stop = 50; probability = 0.4; times = -1 } ];
    let hits = ref [] in
    for now = 0 to 70 do
      Ksim.Storm.tick storm now;
      hits := Ksim.Failpoint.should_fail fp "a" :: Ksim.Failpoint.should_fail fp "b" :: !hits
    done;
    (!hits, Ksim.Failpoint.schedule fp, Ksim.Failpoint.total_injected fp)
  in
  let a = drive () and b = drive () in
  check Alcotest.bool "same seed, same tick sequence: identical injections" true (a = b);
  let _, schedule, injected = a in
  check Alcotest.bool "the storm actually injected" true (injected > 0);
  check Alcotest.int "schedule records every injection" injected (List.length schedule)

(* The reference model for [Storm.tick]: recompute every site's covering
   set from scratch on every tick, exactly as the composition semantics
   in storm.mli state it.  The real storm caches the window between
   burst boundaries; driven in lockstep over two registries with the
   same seed, both must leave every site identically configured. *)
module Ref_storm = struct
  type t = {
    fp : Ksim.Failpoint.t;
    mutable bursts : Ksim.Storm.burst list;
    applied : (string, int list) Hashtbl.t;
  }

  let create fp = { fp; bursts = []; applied = Hashtbl.create 8 }

  let add t schedule =
    t.bursts <-
      List.stable_sort
        (fun (a : Ksim.Storm.burst) (b : Ksim.Storm.burst) ->
          compare (a.site, a.start, a.stop) (b.site, b.start, b.stop))
        (t.bursts @ schedule)

  let sites t = List.sort_uniq String.compare (List.map (fun b -> b.Ksim.Storm.site) t.bursts)

  let tick t now =
    List.iter
      (fun site ->
        let cover =
          List.mapi (fun i b -> (i, b)) t.bursts
          |> List.filter (fun (_, (b : Ksim.Storm.burst)) ->
                 b.site = site && b.start <= now && now < b.stop)
        in
        let signature = List.map fst cover in
        if Hashtbl.find_opt t.applied site <> Some signature then begin
          Hashtbl.replace t.applied site signature;
          match cover with
          | [] -> Ksim.Failpoint.configure t.fp site ~enabled:false ()
          | _ ->
              let probability =
                1.0
                -. List.fold_left
                     (fun acc (_, (b : Ksim.Storm.burst)) -> acc *. (1.0 -. b.probability))
                     1.0 cover
              in
              let times =
                if List.exists (fun (_, (b : Ksim.Storm.burst)) -> b.times < 0) cover then -1
                else List.fold_left (fun acc (_, (b : Ksim.Storm.burst)) -> acc + b.times) 0 cover
              in
              Ksim.Failpoint.configure t.fp site ~enabled:true ~probability ~times ()
        end)
      (sites t)

  let disable t =
    List.iter (fun site -> Ksim.Failpoint.configure t.fp site ~enabled:false ()) (sites t);
    Hashtbl.reset t.applied
end

let test_storm_cache_matches_reference () =
  let site_state (s : Ksim.Failpoint.site) =
    Printf.sprintf "%s enabled=%b p=%h interval=%d times=%d hits=%d injected=%d" s.name s.enabled
      s.probability s.interval s.times s.hits s.injected
  in
  for seed = 1 to 40 do
    let rng = Ksim.Rng.of_int seed in
    let schedule () =
      List.init
        (1 + Ksim.Rng.int rng 4)
        (fun _ ->
          let start = Ksim.Rng.int rng 60 in
          {
            Ksim.Storm.site = Ksim.Rng.pick rng [ "a"; "b"; "c"; "d" ];
            start;
            stop = start + 1 + Ksim.Rng.int rng 20;
            probability = Ksim.Rng.pick rng [ 0.0; 0.3; 0.5; 1.0 ];
            times = Ksim.Rng.int rng 6 - 1;
          })
    in
    let fp_real = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed () in
    let fp_ref = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed () in
    let real = Ksim.Storm.create ~fp:fp_real () and model = Ref_storm.create fp_ref in
    let first = schedule () in
    Ksim.Storm.add real first;
    Ref_storm.add model first;
    let now = ref 0 in
    for step = 1 to 300 do
      (match Ksim.Rng.int rng 20 with
      | 0 ->
          (* Mid-burst kill: the next tick re-arms from scratch. *)
          Ksim.Storm.disable real;
          Ref_storm.disable model
      | 1 ->
          let more = schedule () in
          Ksim.Storm.add real more;
          Ref_storm.add model more
      | 2 | 3 -> now := Ksim.Rng.int rng 100 - 10 (* non-monotonic time *)
      | 4 -> () (* the same tick twice *)
      | _ -> incr now);
      Ksim.Storm.tick real !now;
      Ref_storm.tick model !now;
      (* Hit every site so the live [times] countdowns drain. *)
      List.iter
        (fun site ->
          let a = Ksim.Failpoint.should_fail fp_real site in
          let b = Ksim.Failpoint.should_fail fp_ref site in
          if a <> b then fail (Printf.sprintf "seed %d step %d: %s fired differently" seed step site))
        [ "a"; "b"; "c"; "d" ];
      check
        Alcotest.(list string)
        (Printf.sprintf "seed %d step %d (now %d): every site configured alike" seed step !now)
        (List.map site_state (Ksim.Failpoint.sites fp_ref))
        (List.map site_state (Ksim.Failpoint.sites fp_real))
    done
  done

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ksim"
    [
      ( "errno",
        [
          Alcotest.test_case "roundtrip" `Quick test_errno_roundtrip;
          Alcotest.test_case "known codes" `Quick test_errno_codes;
          Alcotest.test_case "unknown code" `Quick test_errno_unknown_code;
          Alcotest.test_case "result bind" `Quick test_errno_bind;
        ] );
      ( "dyn",
        [
          Alcotest.test_case "roundtrip" `Quick test_dyn_roundtrip;
          Alcotest.test_case "type confusion" `Quick test_dyn_mismatch;
          Alcotest.test_case "same-name keys differ" `Quick test_dyn_same_name_different_keys;
          Alcotest.test_case "null" `Quick test_dyn_null;
          Alcotest.test_case "errptr convention" `Quick test_errptr;
        ] );
      ( "kmem",
        [
          Alcotest.test_case "alloc/read/write/free" `Quick test_kmem_alloc_read_write;
          Alcotest.test_case "use-after-free" `Quick test_kmem_use_after_free;
          Alcotest.test_case "double free" `Quick test_kmem_double_free;
          Alcotest.test_case "non-strict write-after-free" `Quick test_kmem_nonstrict_write_after_free;
          Alcotest.test_case "leak report" `Quick test_kmem_leaks;
          Alcotest.test_case "is_live" `Quick test_kmem_is_live;
          Alcotest.test_case "heap collectable, events exported" `Quick
            test_kmem_heap_collectable;
        ] );
      ( "klock",
        [
          Alcotest.test_case "basic" `Quick test_lock_basic;
          Alcotest.test_case "self deadlock" `Quick test_lock_self_deadlock;
          Alcotest.test_case "release by non-holder" `Quick test_lock_release_by_nonholder;
          Alcotest.test_case "with_lock releases on exn" `Quick test_with_lock_releases_on_exception;
          Alcotest.test_case "guarded race detection" `Quick test_guarded_race_detection;
          Alcotest.test_case "guarded strict raises" `Quick test_guarded_strict_raises;
        ] );
      ( "lockdep",
        [
          Alcotest.test_case "consistent order clean" `Quick test_lockdep_consistent_order_clean;
          Alcotest.test_case "inversion detected" `Quick test_lockdep_inversion_detected;
          Alcotest.test_case "transitive cycle" `Quick test_lockdep_transitive_cycle;
          Alcotest.test_case "across threads" `Quick test_lockdep_across_threads;
          Alcotest.test_case "out-of-order release" `Quick test_lockdep_reentrant_stack;
          Alcotest.test_case "edges and exports" `Quick test_lockdep_edges_export;
          Alcotest.test_case "out-of-order release drops held edge" `Quick
            test_lockdep_release_out_of_order;
          Alcotest.test_case "re-acquire after release" `Quick
            test_lockdep_reacquire_after_release;
          Alcotest.test_case "trylock participates in ordering" `Quick
            test_lockdep_trylock_orders;
        ] );
      ( "kthread",
        [
          Alcotest.test_case "runs all threads" `Quick test_scheduler_runs_all;
          Alcotest.test_case "seeded determinism" `Quick test_scheduler_seeded_deterministic;
          Alcotest.test_case "collects failures" `Quick test_scheduler_collects_failures;
          Alcotest.test_case "lock handoff" `Quick test_scheduler_lock_handoff;
          Alcotest.test_case "livelock detected" `Quick test_scheduler_livelock_detected;
          Alcotest.test_case "lost update race" `Quick test_lost_update_race;
        ] );
      ("ktrace", [ Alcotest.test_case "ring and counts" `Quick test_trace_basic ]);
      ( "rng",
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic
        :: Alcotest.test_case "split independence" `Quick test_rng_split_independent
        :: Alcotest.test_case "golden outputs" `Quick test_rng_golden
        :: qcheck [ rng_int_in_bounds; rng_float_in_unit; rng_shuffle_permutation; rng_pick_member ]
      );
      ( "failpoint",
        [
          Alcotest.test_case "interval and times" `Quick test_failpoint_interval_and_times;
          Alcotest.test_case "disabled and heal" `Quick test_failpoint_disabled_and_heal;
          Alcotest.test_case "probability replayable" `Quick test_failpoint_probability_replayable;
          Alcotest.test_case "fire is should_fail" `Quick test_failpoint_fire_is_should_fail;
          Alcotest.test_case "interval x times exhaustion" `Quick
            test_failpoint_interval_times_exhaustion;
          Alcotest.test_case "re-configure after disable_all" `Quick
            test_failpoint_reconfigure_after_disable_all;
          Alcotest.test_case "per-site streams vs registration order" `Quick
            test_failpoint_streams_per_site;
          Alcotest.test_case "publish counters" `Quick test_failpoint_publish;
        ] );
      ( "kstats",
        [
          Alcotest.test_case "counters" `Quick test_kstats;
          Alcotest.test_case "snapshot diff" `Quick test_kstats_snapshot_diff;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "contains and microreboots" `Quick
            test_supervisor_contains_and_reboots;
          Alcotest.test_case "stale epochs -> ESTALE" `Quick test_supervisor_stale_epochs;
          Alcotest.test_case "escalates to failed" `Quick test_supervisor_escalates_to_failed;
          Alcotest.test_case "failed restart burns budget" `Quick
            test_supervisor_failed_restart_burns_budget;
          Alcotest.test_case "replayable" `Quick test_supervisor_replayable;
          Alcotest.test_case "publish counters" `Quick test_supervisor_publish;
          Alcotest.test_case "recovery aggregation over all reboots" `Quick
            test_supervisor_recovery_aggregation;
        ] );
      ( "hist",
        [
          Alcotest.test_case "percentiles within resolution" `Quick test_hist_percentiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "kstats derived entries" `Quick test_kstats_hist_snapshot;
        ] );
      ( "storm",
        [
          Alcotest.test_case "overlapping schedules compose" `Quick
            test_storm_overlap_composition;
          Alcotest.test_case "disable mid-burst" `Quick test_storm_disable_mid_burst;
          Alcotest.test_case "replay determinism" `Quick test_storm_replay_determinism;
          Alcotest.test_case "window cache matches per-tick recompute" `Quick
            test_storm_cache_matches_reference;
        ] );
    ]
