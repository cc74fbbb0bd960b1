(* Tests for klint, the static safety-ladder linter: good/bad fixture
   snippets for each rule R1–R5, the domination and branch-join logic the
   stateful passes depend on, the interprocedural passes (kracer's
   lockset race rules, kown's ownership-lifetime rules R8–R11) with
   their runtime reconciliations, reconciliation of findings against
   claimed Registry levels (a Type_safe module with a cast_exn must
   fail), the baseline round-trip, and a self-lint of the shipped tree
   whose report must reconcile with the boot registry. *)

let check = Alcotest.check

module Level = Safeos_core.Level
module F = Klint.Finding
module E = Klint.Engine
module B = Klint.Baseline

(* Fixture plumbing ----------------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if String.length d > 1 && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* Write [content] as [rel] under a throwaway root and lint it.  The
   snippets only need to parse — klint is syntactic, so unbound names
   are fine. *)
let lint_snippet ?(rel = "lib/fixture/snippet.ml") content =
  let root = Filename.temp_dir "klint_test" "" in
  let path = Filename.concat root rel in
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  match E.lint_file ~root rel with
  | Ok findings -> F.sort findings
  | Error msg -> Alcotest.fail ("fixture did not parse: " ^ msg)

let rule_ids findings = List.map (fun f -> F.rule_id f.F.rule) findings
let ids = Alcotest.(list string)

(* Every fixture claims one subsystem at a chosen level, so the
   reconciliation tests can move the claim up and down the ladder. *)
let claiming level _path = { Klint.Subsystem.sub = "fixture"; level; registered = false }

let violations ?(baseline = []) level findings =
  (E.reconcile ~claim_of:(claiming level) ~baseline findings).E.violations

(* R1: unchecked casts --------------------------------------------------- *)

let test_r1_unchecked_cast () =
  let bad = lint_snippet "let f d = Ksim.Dyn.cast_exn key d\n" in
  check ids "cast_exn flagged" [ "R1" ] (rule_ids bad);
  check Alcotest.string "enclosing binding" "f" (List.hd bad).F.func;
  let good =
    lint_snippet
      "let f d = match Ksim.Dyn.project key d with Some x -> Some x | None -> None\n"
  in
  check ids "project is the checked path" [] (rule_ids good);
  (* a local function merely named cast_exn is not the Dyn one *)
  check ids "unqualified name not matched" [] (rule_ids (lint_snippet "let g d = cast_exn d\n"))

(* R2: err-ptr checks must dominate dereferences ------------------------- *)

let test_r2_unchecked_errptr () =
  let bad = lint_snippet "let f h = Errptr.deref h\n" in
  check ids "naked deref flagged" [ "R2" ] (rule_ids bad);
  let guarded =
    lint_snippet "let f h = if Errptr.is_err h then None else Some (Errptr.deref h)\n"
  in
  check ids "is_err dominates" [] (rule_ids guarded);
  let matched =
    lint_snippet
      "let f h =\n\
      \  match h with\n\
      \  | Errptr.Err e -> Error e\n\
      \  | Errptr.Ptr _ -> Ok (Errptr.deref h)\n"
  in
  check ids "Err/Ptr match dominates" [] (rule_ids matched);
  let bound =
    lint_snippet
      "let f h = let bad = Errptr.is_err h in if bad then None else Some (Errptr.deref h)\n"
  in
  check ids "stored check result dominates" [] (rule_ids bound);
  (* a check in a discarded branch does not dominate a later use *)
  let non_dominating =
    lint_snippet "let f h = (if Errptr.is_err h then () else ()); Errptr.deref h\n"
  in
  check ids "check must dominate, not merely precede" [ "R2" ] (rule_ids non_dominating)

(* R3: lock balance on every exit path ----------------------------------- *)

let test_r3_lock_balance () =
  let leak = lint_snippet "let f l = Klock.acquire l; compute l\n" in
  check ids "acquire without release" [ "R3" ] (rule_ids leak);
  let balanced = lint_snippet "let f l = Klock.acquire l; compute l; Klock.release l\n" in
  check ids "balanced pair is clean" [] (rule_ids balanced);
  let with_lock = lint_snippet "let f l = Klock.with_lock l (fun () -> compute l)\n" in
  check ids "with_lock is the blessed shape" [] (rule_ids with_lock);
  let skewed =
    lint_snippet "let f l c = Klock.acquire l; if c then Klock.release l else ()\n"
  in
  check ids "held on one branch only" [ "R3" ] (rule_ids skewed);
  let diverging =
    lint_snippet
      "let f l x =\n\
      \  Klock.acquire l;\n\
      \  match x with\n\
      \  | Some v -> Klock.release l; v\n\
      \  | None -> failwith \"boom\"\n"
  in
  check ids "diverging branch exempt from balance" [] (rule_ids diverging);
  let unowned = lint_snippet "let f l = Klock.release l\n" in
  check ids "release without acquire" [ "R3" ] (rule_ids unowned);
  (* two different locks each tracked by name *)
  let two =
    lint_snippet "let f a b = Klock.acquire a; Klock.acquire b; Klock.release a\n"
  in
  check ids "per-lock tracking" [ "R3" ] (rule_ids two)

(* R4: ownership bypass -------------------------------------------------- *)

let test_r4_ownership_bypass () =
  let bad = lint_snippet "let f b = Bytes.unsafe_get b 0\n" in
  check ids "Bytes.unsafe_* flagged" [ "R4" ] (rule_ids bad);
  let good = lint_snippet "let f b = Bytes.get b 0\n" in
  check ids "checked accessor clean" [] (rule_ids good);
  (* the ownership layer itself may touch raw representations *)
  let exempt =
    lint_snippet ~rel:"lib/ownership/fixture.ml" "let f b = Bytes.unsafe_get b 0\n"
  in
  check ids "lib/ownership exempt" [] (rule_ids exempt)

(* R5: must-check results ------------------------------------------------ *)

let test_r5_must_check () =
  let ignored = lint_snippet "let f t = ignore (submit_write t 0 data)\n" in
  check ids "ignore of must-check" [ "R5" ] (rule_ids ignored);
  let wild = lint_snippet "let _ = submit_write t 0 data\n" in
  check ids "let _ of must-check" [ "R5" ] (rule_ids wild);
  let typed = lint_snippet "let (_ : int r) = submit_write t 0 data\n" in
  check ids "typed wildcard is an acknowledgment" [] (rule_ids typed);
  let other = lint_snippet "let f t = ignore (helper t)\n" in
  check ids "non-must-check ignore is fine" [] (rule_ids other)

(* R7: annotation/body mismatches ---------------------------------------- *)

let test_r7_annotation_mismatch () =
  let honest = lint_snippet "let f l = Klock.acquire l [@@acquires \"l\"]\n" in
  check ids "@acquires with matching body is clean" [] (rule_ids honest);
  let liar = lint_snippet "let f l = compute l [@@acquires \"l\"]\n" in
  check ids "@acquires with no acquisition" [ "R7" ] (rule_ids liar);
  let imbalanced = lint_snippet "let f l = Klock.acquire l [@@must_hold \"l\"]\n" in
  check ids "@must_hold must not change the balance" [ "R7" ] (rule_ids imbalanced);
  let releaser = lint_snippet "let f l = Klock.release l [@@releases \"l\"]\n" in
  check ids "@releases licenses the naked release" [] (rule_ids releaser);
  (* without the annotation the same bodies are R3 territory *)
  let r3 = lint_snippet "let f l = Klock.acquire l\n" in
  check ids "unannotated imbalance is still R3" [ "R3" ] (rule_ids r3)

(* kracer: the interprocedural pass -------------------------------------- *)

(* Write a whole multi-file fixture tree and run the full engine on it,
   so call-graph construction, the fixpoints, and finding plumbing are
   all exercised together. *)
let lint_tree_fixture files =
  let root = Filename.temp_dir "kracer_test" "" in
  List.iter
    (fun (rel, content) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc)
    files;
  (root, E.lint_tree ~root)

let fixture_cell_module =
  "type t = { i_lock : Ksim.Klock.t; i_size : int Ksim.Klock.Guarded.cell }\n\
   let make i_lock =\n\
  \  { i_lock; i_size = Ksim.Klock.Guarded.create ~lock:i_lock ~name:\"i_size:0\" 0 }\n"

let test_kracer_r6_two_hops () =
  (* The seeded acceptance fixture: a Guarded.set reached through two
     call hops with no lock anywhere on the path. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/cellmod.ml",
          fixture_cell_module
          ^ "let set_size t n = Ksim.Klock.Guarded.set t.i_size n\n\
             let mid t n = set_size t n\n\
             let top t n = mid t n\n" );
      ]
  in
  let r6 = List.filter (fun f -> f.F.rule = F.R6_lockset_race) tree.E.findings in
  check Alcotest.int "unlocked write through two hops flagged" 1 (List.length r6);
  check Alcotest.string "flagged inside the accessor" "Cellmod.set_size" (List.hd r6).F.func

let test_kracer_r6_annotated_clean () =
  (* The same chain, annotated and locked at the top: the contracts
     thread the lock requirement down and everything discharges. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/cellmod.ml",
          fixture_cell_module
          ^ "(** @must_hold: i_lock *)\n\
             let set_size t n = Ksim.Klock.Guarded.set t.i_size n\n\
             (** @must_hold: i_lock *)\n\
             let mid t n = set_size t n\n\
             let top t n = Ksim.Klock.with_lock t.i_lock (fun () -> mid t n)\n" );
      ]
  in
  check ids "annotated chain is clean" [] (rule_ids tree.E.findings)

let test_kracer_r6_must_hold_call_site () =
  (* A caller that ignores a callee's @must_hold contract is flagged at
     the call site even when the callee never touches a Guarded cell. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/contract.ml",
          "(** @must_hold: i_lock *)\n\
           let locked_op i_lock = compute i_lock\n\
           let careless i_lock = locked_op i_lock\n" );
      ]
  in
  let r6 = List.filter (fun f -> f.F.rule = F.R6_lockset_race) tree.E.findings in
  check Alcotest.int "contract violation at the call site" 1 (List.length r6);
  check Alcotest.string "in the careless caller" "Contract.careless" (List.hd r6).F.func

let test_kracer_static_edges_and_cycles () =
  (* Both nestings of the same two locks: the static graph must contain
     both edges and predict the AB-BA deadlock as a cycle, including the
     acquisition that only happens inside a callee. *)
  let root, _ =
    lint_tree_fixture
      [
        ( "lib/fixture/order.ml",
          "let inner b_lock = Ksim.Klock.with_lock b_lock (fun () -> ())\n\
           let ab a_lock b_lock = Ksim.Klock.with_lock a_lock (fun () -> inner b_lock)\n\
           let ba a_lock b_lock =\n\
          \  Ksim.Klock.with_lock b_lock (fun () ->\n\
          \      Ksim.Klock.with_lock a_lock (fun () -> ()))\n" );
      ]
  in
  let k = Klint.Kracer.analyze_tree ~root in
  check Alcotest.bool "a->b edge (through the call)" true
    (List.mem ("a_lock", "b_lock") k.Klint.Kracer.edges);
  check Alcotest.bool "b->a edge (direct nesting)" true
    (List.mem ("b_lock", "a_lock") k.Klint.Kracer.edges);
  check
    Alcotest.(list (list string))
    "the AB-BA cycle is predicted"
    [ [ "a_lock"; "b_lock" ] ]
    k.Klint.Kracer.cycles

let test_kracer_runtime_reconciliation () =
  (* Class-collapse and subtraction: runtime instances of a statically
     known nesting are covered; an order the static graph lacks is
     reported as the unsound residue. *)
  let static = [ ("s_lock", "i_lock") ] in
  check
    Alcotest.(list (pair string string))
    "instance edges collapse onto the static class edge" []
    (Klint.Kracer.missing_runtime_edges ~static
       [ ("s_lock", "i_lock:3"); ("s_lock", "i_lock:7") ]);
  check
    Alcotest.(list (pair string string))
    "an unseen ordering surfaces" [ ("i_lock", "j_lock") ]
    (Klint.Kracer.missing_runtime_edges ~static
       [ ("s_lock", "i_lock:3"); ("i_lock:3", "j_lock:1") ])

let test_kracer_mli_annotation () =
  (* Contracts may live on the .mli val instead of the .ml binding. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/sigmod.ml",
          fixture_cell_module ^ "let set_size t n = Ksim.Klock.Guarded.set t.i_size n\n" );
        ( "lib/fixture/sigmod.mli",
          "type t\n\
           val make : Ksim.Klock.t -> t\n\
           (** @must_hold: i_lock *)\n\
           val set_size : t -> int -> unit\n" );
      ]
  in
  check ids "mli contract discharges the cell access" [] (rule_ids tree.E.findings)

(* kown: the ownership-lifetime pass ------------------------------------- *)

let is_own_rule = function
  | F.R8_use_after_free | F.R9_double_free | F.R10_error_leak | F.R11_borrow_escape ->
      true
  | _ -> false

let test_kown_r8_branch_join () =
  (* A free on only one arm of a branch MAY have happened afterwards —
     the join is a may-union, so the later write is a use-after-free. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/own.ml",
          "let f p c =\n\
          \  (if c then Ksim.Kmem.free p else ());\n\
          \  Ksim.Kmem.write p 1\n\
           let g p c =\n\
          \  Ksim.Kmem.write p 1;\n\
          \  if c then Ksim.Kmem.free p else ()\n" );
      ]
  in
  check ids "use after a may-free is flagged, use before is not" [ "R8" ]
    (rule_ids tree.E.findings);
  check Alcotest.string "in the branching function" "Own.f"
    (List.hd tree.E.findings).F.func

let test_kown_interprocedural_consume () =
  (* The consuming contract travels two call hops up the graph: [base]
     frees its argument, so [mid] consumes, so [top]'s later read is a
     use-after-move and [dbl]'s later free a double free. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/chain.ml",
          "let base p = Ksim.Kmem.free p\n\
           let mid p = base p\n\
           let top p = mid p; Ksim.Kmem.read p\n\
           let dbl p = base p; Ksim.Kmem.free p\n" );
      ]
  in
  let rule r = List.filter (fun f -> f.F.rule = r) tree.E.findings in
  (match rule F.R8_use_after_free with
  | [ f ] -> check Alcotest.string "use-after-move in the caller" "Chain.top" f.F.func
  | l -> Alcotest.fail (Fmt.str "expected one R8, got %d" (List.length l)));
  (match rule F.R9_double_free with
  | [ f ] -> check Alcotest.string "double free in the caller" "Chain.dbl" f.F.func
  | l -> Alcotest.fail (Fmt.str "expected one R9, got %d" (List.length l)));
  check Alcotest.int "consuming propagated to every function" 4
    tree.E.kown.Klint.Kown.consuming

let test_kown_r10_error_path () =
  (* Trigger 1: a locally allocated, unescaped object still owned when an
     [Error _] constructor is built leaks on that path; freeing first is
     the fix. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/errpath.ml",
          "let bad h c =\n\
          \  let p = Ksim.Kmem.alloc h ~site:\"s\" 0 in\n\
          \  if c then Error Enomem else Ok p\n\
           let good h c =\n\
          \  let p = Ksim.Kmem.alloc h ~site:\"s\" 0 in\n\
          \  if c then begin Ksim.Kmem.free p; Error Enomem end else Ok p\n" );
      ]
  in
  check ids "leak on the error arm only" [ "R10" ] (rule_ids tree.E.findings);
  check Alcotest.string "in the leaking function" "Errpath.bad"
    (List.hd tree.E.findings).F.func

let test_kown_r10_sibling_arm () =
  (* Trigger 2: both arms run the same Hashtbl.remove teardown but only
     one frees — the forgot-the-kfree-in-one-arm shape. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/twoarm.ml",
          "let unlink tbl ino p keep =\n\
          \  if keep then Hashtbl.remove tbl ino\n\
          \  else begin\n\
          \    Ksim.Kmem.free p;\n\
          \    Hashtbl.remove tbl ino\n\
          \  end\n\
           let both tbl ino p =\n\
          \  if Hashtbl.mem tbl ino then begin\n\
          \    Ksim.Kmem.free p;\n\
          \    Hashtbl.remove tbl ino\n\
          \  end\n\
          \  else begin\n\
          \    Ksim.Kmem.free p;\n\
          \    Hashtbl.remove tbl ino\n\
          \  end\n" );
      ]
  in
  check ids "the arm missing the free is flagged" [ "R10" ] (rule_ids tree.E.findings);
  check Alcotest.string "in the asymmetric function" "Twoarm.unlink"
    (List.hd tree.E.findings).F.func

let test_kown_r11_borrow_escape () =
  (* Borrows must stay inside their lend closure: storing one, returning
     one, freeing one, and touching a revoked capability are all R11;
     reading through the borrow inside the closure is the blessed use. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/borrow.ml",
          "let store_escape ck cap slot =\n\
          \  Ownership.Checker.lend_exclusive ck cap ~to_:\"x\" ~f:(fun b ->\n\
          \      slot.saved <- b)\n\
           let ret_escape ck cap =\n\
          \  Ownership.Checker.lend_shared ck cap ~to_:[ \"x\" ] ~f:(fun bs ->\n\
          \      match bs with [ b ] -> b | _ -> assert false)\n\
           let frees_borrow ck cap =\n\
          \  Ownership.Checker.lend_exclusive ck cap ~to_:\"x\" ~f:(fun b ->\n\
          \      Ownership.Checker.free ck b)\n\
           let revoked ck c =\n\
          \  Ownership.Cap.revoke c;\n\
          \  Ownership.Checker.read ck c ~off:0 ~len:1\n" );
        ( "lib/fixture/borrow_ok.ml",
          "let fine ck cap n =\n\
          \  Ownership.Checker.lend_shared ck cap ~to_:[ \"x\" ] ~f:(fun bs ->\n\
          \      match bs with\n\
          \      | [ b ] -> Bytes.to_string (Ownership.Checker.read ck b ~off:0 ~len:n)\n\
          \      | _ -> assert false)\n" );
      ]
  in
  check ids "every escape shape is R11, the in-scope read is clean"
    [ "R11"; "R11"; "R11"; "R11" ]
    (rule_ids tree.E.findings);
  List.iter
    (fun f -> check Alcotest.string "all in the bad file" "lib/fixture/borrow.ml" f.F.file)
    tree.E.findings

let test_kown_annotations () =
  (* Attribute-form contracts override the inference: without them the
     same bodies (opaque callees) lint clean; with them the caller's
     use-after-consume and error-path leak surface. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/annotated.ml",
          "let release p = dealloc p [@@consumes \"p\"]\n\
           let make h = priv_alloc h [@@returns_owned]\n\
           let f t = release t; Ksim.Kmem.read t\n\
           let g h c =\n\
          \  let q = make h in\n\
          \  if c then Error Enomem else begin Ksim.Kmem.free q; Ok () end\n" );
        ( "lib/fixture/unannotated.ml",
          "let release p = dealloc p\n\
           let make h = priv_alloc h\n\
           let f t = release t; Ksim.Kmem.read t\n\
           let g h c =\n\
          \  let q = make h in\n\
          \  if c then Error Enomem else begin Ksim.Kmem.free q; Ok () end\n" );
      ]
  in
  check ids "annotated contracts fire, unannotated twins stay clean" [ "R8"; "R10" ]
    (rule_ids tree.E.findings);
  List.iter
    (fun f ->
      check Alcotest.string "only the annotated file" "lib/fixture/annotated.ml" f.F.file)
    tree.E.findings

let test_kown_mli_annotation () =
  (* An ownership contract on the .mli val binds the .ml implementation,
     like kracer's @must_hold. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/res.ml",
          "let release r = dealloc r\nlet f r = release r; Ksim.Kmem.read r\n" );
        ( "lib/fixture/res.mli",
          "val f : 'a -> 'b\n(** @consumes: r *)\nval release : 'a -> unit\n" );
      ]
  in
  check ids "mli @consumes drives the caller check" [ "R8" ] (rule_ids tree.E.findings);
  check Alcotest.string "flagged at the use in the caller" "Res.f"
    (List.hd tree.E.findings).F.func

let test_kown_kmem_events () =
  let write_tmp content =
    let path = Filename.temp_file "kmem" ".events" in
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc;
    path
  in
  (* parse: well-formed lines load, a malformed line is a hard error so a
     truncated export cannot pass reconciliation by vacuity *)
  (match
     Klint.Kown.read_kmem_events
       (write_tmp "uaf\town_ev\tsite-a\t2\n\nleak\town_ev\tsite-b\t1\n")
   with
  | Ok evs -> check Alcotest.int "events parsed, blank line skipped" 2 (List.length evs)
  | Error msg -> Alcotest.fail msg);
  (match Klint.Kown.read_kmem_events (write_tmp "uaf own_ev site-a 2\n") with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error _ -> ());
  (* subtraction: an event whose file already has a static finding of the
     matching rule is covered; one without is the unsound residue; heaps
     with no linted file (test scratch heaps) are skipped *)
  let _, tree =
    lint_tree_fixture
      [ ("lib/fixture/own_ev.ml", "let f p = Ksim.Kmem.free p; Ksim.Kmem.read p\n") ]
  in
  check ids "fixture carries the R8" [ "R8" ] (rule_ids tree.E.findings);
  let ev kind heap = { Klint.Kown.kind; heap; site = "s"; count = 1 } in
  let survivors =
    Klint.Kown.unflagged_kmem_events
      ~files:[ "lib/fixture/own_ev.ml" ]
      ~findings:tree.E.findings
      [ ev "uaf" "own_ev"; ev "uaf" "own_ev"; ev "double_free" "own_ev"; ev "leak" "scratch" ]
  in
  match survivors with
  | [ (e, file, rule) ] ->
      check Alcotest.string "unflagged event attributed to the file" "lib/fixture/own_ev.ml"
        file;
      check Alcotest.string "double_free maps to R9" "R9" (F.rule_id rule);
      check Alcotest.string "the surviving kind" "double_free" e.Klint.Kown.kind
  | l -> Alcotest.fail (Fmt.str "expected one unflagged event, got %d" (List.length l))

let test_kown_reconcile_ownership_claim () =
  (* A subsystem claiming Ownership_safe must not carry a double free —
     below that rung the finding is recorded but tolerated, and a
     grandfathered entry stays a non-violation. *)
  let _, tree =
    lint_tree_fixture
      [ ("lib/fixture/own_claim.ml", "let f p = Ksim.Kmem.free p; Ksim.Kmem.free p\n") ]
  in
  check ids "double free found" [ "R9" ] (rule_ids tree.E.findings);
  check Alcotest.int "violation under the Ownership_safe claim" 1
    (List.length (violations Level.Ownership_safe tree.E.findings));
  check Alcotest.int "tolerated under Modular" 0
    (List.length (violations Level.Modular tree.E.findings));
  check Alcotest.int "baselined finding tolerated" 0
    (List.length
       (violations
          ~baseline:(B.of_findings tree.E.findings)
          Level.Ownership_safe tree.E.findings))

let test_kown_baseline_renumbering () =
  (* Baseline entries are line-anchored: an unrelated edit above the
     finding renumbers it, the old entry goes stale and the finding
     reappears as a violation.  The ci ratchet compares per
     (rule, file, class) counts exactly so that this renumbering is not
     mistaken for growth. *)
  let fixture prefix =
    [ ("lib/fixture/own_base.ml", prefix ^ "let f p = Ksim.Kmem.free p; Ksim.Kmem.free p\n") ]
  in
  let _, t1 = lint_tree_fixture (fixture "") in
  let base = B.of_findings t1.E.findings in
  let _, t2 = lint_tree_fixture (fixture "let unrelated = 0\n") in
  let r = E.reconcile ~claim_of:(claiming Level.Ownership_safe) ~baseline:base t2.E.findings in
  check Alcotest.int "renumbered finding is no longer grandfathered" 1
    (List.length r.E.violations);
  check Alcotest.int "its old entry is reported stale" 1 (List.length r.E.stale_baseline)

(* Reconciliation -------------------------------------------------------- *)

let test_reconcile_cast_violation () =
  (* The acceptance fixture: a subsystem claiming Type_safe (or above)
     gains a Dyn.cast_exn — klint must report a violation. *)
  let findings = lint_snippet "let f d = Ksim.Dyn.cast_exn key d\n" in
  check Alcotest.int "violation at type-safe" 1
    (List.length (violations Level.Type_safe findings));
  check Alcotest.int "violation at verified" 1
    (List.length (violations Level.Verified findings));
  check Alcotest.int "tolerated at modular" 0
    (List.length (violations Level.Modular findings));
  (* grandfathered: recorded as forbidden but not a violation *)
  let r =
    E.reconcile ~claim_of:(claiming Level.Type_safe) ~baseline:(B.of_findings findings)
      findings
  in
  check Alcotest.int "baselined finding tolerated" 0 (List.length r.E.violations);
  check Alcotest.int "but still attributed as forbidden" 1
    (List.length (List.filter (fun a -> a.E.forbidden) r.E.attributed))

let test_reconcile_lock_violation () =
  let findings = lint_snippet "let f l = Klock.acquire l; compute l\n" in
  check ids "unbalanced acquire found" [ "R3" ] (rule_ids findings);
  check Alcotest.int "data-race forbidden at ownership-safe" 1
    (List.length (violations Level.Ownership_safe findings));
  check Alcotest.int "tolerated at type-safe (races not yet claimed)" 0
    (List.length (violations Level.Type_safe findings))

let test_parse_error_reported () =
  let root = Filename.temp_dir "klint_test" "" in
  let rel = "lib/fixture/broken.ml" in
  mkdir_p (Filename.concat root "lib/fixture");
  let oc = open_out_bin (Filename.concat root rel) in
  output_string oc "let = (\n";
  close_out oc;
  match E.lint_file ~root rel with
  | Ok _ -> Alcotest.fail "garbage parsed?"
  | Error _ -> ()

(* Baseline -------------------------------------------------------------- *)

let test_baseline_roundtrip () =
  let findings =
    lint_snippet
      "let f d = Ksim.Dyn.cast_exn key d\n\
       let g b = Bytes.unsafe_get b 0\n\
       let h t = ignore (submit_write t 0 data)\n"
  in
  check ids "three rules fire" [ "R1"; "R4"; "R5" ] (rule_ids findings);
  let base = B.of_findings findings in
  (match B.of_string (B.to_string base) with
  | Ok base' -> check Alcotest.bool "to_string/of_string round-trip" true (base = base')
  | Error msg -> Alcotest.fail msg);
  (* stable ordering: shuffled input renders identically *)
  check Alcotest.string "order independent of input order" (B.to_string base)
    (B.to_string (B.of_findings (List.rev findings)));
  List.iter (fun f -> check Alcotest.bool "mem" true (B.mem base f)) findings;
  check Alcotest.int "nothing stale" 0 (List.length (B.stale base findings));
  (* fix one finding: its entry is reported as ratchet progress *)
  let fixed = List.filter (fun f -> f.F.rule <> F.R1_unchecked_cast) findings in
  check Alcotest.int "fixed entry is stale" 1 (List.length (B.stale base fixed))

(* ktcb: frame confinement (R12-R14) and the TCB metric ------------------ *)

module K = Klint.Ktcb
module Fr = Klint.Frame

let ktcb_ids (k : K.result) = List.map (fun f -> F.rule_id f.F.rule) k.K.findings

let test_ktcb_r12_direct () =
  (* Direct Dyn access from a service module: R12, kept out of the
     ladder findings — its ratchet is tcb.baseline, not klint.baseline. *)
  let _, tree =
    lint_tree_fixture
      [ ("lib/fixture/svc.ml", "let lookup key d = Ksim.Dyn.project key d\n") ]
  in
  let k = tree.E.ktcb in
  check ids "direct Dyn use is R12" [ "R12" ] (ktcb_ids k);
  check Alcotest.string "in the service file" "lib/fixture/svc.ml"
    (List.hd k.K.findings).F.file;
  check Alcotest.bool "ktcb findings stay out of the ladder findings" false
    (List.exists (fun f -> f.F.rule = F.R12_unsafe_primitive) tree.E.findings);
  (* the same code *inside* the frame is the frame's business *)
  let _, frame_tree =
    lint_tree_fixture
      [ ("lib/ksim/helper.ml", "let lookup key d = Ksim.Dyn.project key d\n") ]
  in
  check ids "frame-internal use is allowed" [] (ktcb_ids frame_tree.E.ktcb);
  let row = List.find (fun r -> r.K.in_frame) frame_tree.E.ktcb.K.rows in
  check Alcotest.int "every frame line counts as unsafe TCB" row.K.loc row.K.unsafe_loc

let test_ktcb_r13_depth2 () =
  (* Laundering: a helper wraps the raw primitive, a user calls the
     helper, a second hop calls the user.  R12 prices the primitive's
     use site once; every hop of the laundering chain is R13. *)
  let _, tree =
    lint_tree_fixture
      [
        ("lib/fixture/helper.ml", "let steal key d = Ksim.Dyn.project key d\n");
        ( "lib/fixture/user.ml",
          "let get key d = Helper.steal key d\nlet top key d = get key d\n" );
      ]
  in
  let k = tree.E.ktcb in
  let in_file rel rule =
    List.length
      (List.filter
         (fun (f : F.t) -> String.equal f.F.file rel && f.F.rule = rule)
         k.K.findings)
  in
  check Alcotest.int "R12 at the primitive" 1
    (in_file "lib/fixture/helper.ml" F.R12_unsafe_primitive);
  check Alcotest.int "R13 at both laundering hops" 2
    (in_file "lib/fixture/user.ml" F.R13_frame_bypass);
  check Alcotest.int "no R13 where R12 already priced" 0
    (in_file "lib/fixture/helper.ml" F.R13_frame_bypass)

let test_ktcb_r13_frame_surface () =
  (* Resolving into the frame is fine through blessed modules only: an
     unexported frame helper is a bypass even with no raw primitive in
     sight. *)
  let _, tree =
    lint_tree_fixture
      [
        ("lib/ksim/errno.ml", "let eio = 5\n");
        ("lib/ksim/rawhelp.ml", "let poke b = b\n");
        ( "lib/fixture/user.ml",
          "let ok () = Errno.eio\nlet bad b = Rawhelp.poke b\n" );
      ]
  in
  let k = tree.E.ktcb in
  check ids "only the unexported helper is a bypass" [ "R13" ] (ktcb_ids k);
  let f = List.hd k.K.findings in
  check Alcotest.string "flagged in the caller" "lib/fixture/user.ml" f.F.file;
  check Alcotest.string "at the laundering function" "User.bad" f.F.func

let test_ktcb_r14_unsound_export () =
  (* A blessed frame function whose result is a fresh owned object: fine
     consumed frame-internally, R14 once a service can reach it. *)
  let frame = "(** @returns_owned *)\nlet snapshot () = make_raw ()\n" in
  let _, bad =
    lint_tree_fixture
      [
        ("lib/ksim/hist.ml", frame);
        ("lib/fixture/user.ml", "let get () = Hist.snapshot ()\n");
      ]
  in
  check ids "owned raw capability escapes the frame" [ "R14" ] (ktcb_ids bad.E.ktcb);
  check Alcotest.string "flagged at the frame definition" "lib/ksim/hist.ml"
    (List.hd bad.E.ktcb.K.findings).F.file;
  let _, good =
    lint_tree_fixture
      [
        ("lib/ksim/hist.ml", frame);
        ("lib/ksim/other.ml", "let get () = Hist.snapshot ()\n");
      ]
  in
  check ids "frame-internal consumption is clean" [] (ktcb_ids good.E.ktcb)

let test_ktcb_baseline_ratchet () =
  let e rule file count = { K.b_rule = rule; b_file = file; b_count = count } in
  let base =
    List.sort K.compare_entry
      [
        e F.R12_unsafe_primitive "lib/kfs/memfs_unsafe.ml" 2;
        e F.R13_frame_bypass "lib/knet/amp.ml" 1;
      ]
  in
  (match K.of_string (K.to_string base) with
  | Ok base' -> check Alcotest.bool "to_string/of_string round-trip" true (base = base')
  | Error msg -> Alcotest.fail msg);
  (match K.of_string "R99 lib/foo.ml 1\n" with
  | Ok _ -> Alcotest.fail "unknown rule id parsed?"
  | Error _ -> ());
  (* counts, not lines: one more finding in a priced file is a
     regression, a vanished entry is ratchet progress *)
  let current = [ e F.R12_unsafe_primitive "lib/kfs/memfs_unsafe.ml" 3 ] in
  let regressions, progress = K.compare_counts ~baseline:base current in
  (match regressions with
  | [ r ] ->
      check Alcotest.int "regression live count" 3 r.K.d_have;
      check Alcotest.int "regression grandfathered count" 2 r.K.d_allowed
  | _ -> Alcotest.fail "expected exactly one regression");
  (match progress with
  | [ p ] -> check Alcotest.string "vanished entry is progress" "lib/knet/amp.ml" p.K.d_file
  | _ -> Alcotest.fail "expected exactly one progress entry");
  (* identical counts are neither growth nor progress *)
  let regressions, progress = K.compare_counts ~baseline:base base in
  check Alcotest.int "self-compare: no regressions" 0 (List.length regressions);
  check Alcotest.int "self-compare: no progress" 0 (List.length progress)

let test_ktcb_runtime_reconciliation () =
  (* Attribution for the runtime reconciliations: a frame-free module
     that creates a lock class and owns a heap is UNSOUND the moment
     runtime traffic lands on it; priced modules are covered. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/locker.ml",
          "let l = Ksim.Klock.create ~name:\"fix_lock\" ()\n" );
        ("lib/fixture/svc.ml", "let f key d = Ksim.Dyn.project key d\n");
      ]
  in
  let k = tree.E.ktcb in
  let pairs = Alcotest.(list (pair string string)) in
  check pairs "lock creator attributed to its file"
    [ ("fix_lock", "lib/fixture/locker.ml") ]
    k.K.lock_creators;
  check pairs "runtime edge on a frame-free class is unsound"
    [ ("fix_lock", "lib/fixture/locker.ml") ]
    (K.unsound_lock_edges ~result:k ~static_classes:[] [ ("fix_lock", "other_lock") ]);
  check pairs "statically known class is covered" []
    (K.unsound_lock_edges ~result:k ~static_classes:[ "fix_lock" ]
       [ ("fix_lock", "other_lock") ]);
  let files = [ "lib/fixture/locker.ml"; "lib/fixture/svc.ml" ] in
  let ev heap = { Klint.Kown.kind = "leak"; heap; site = "s"; count = 1 } in
  (match K.unsound_kmem_events ~files ~result:k [ ev "locker" ] with
  | [ (_, file) ] ->
      check Alcotest.string "heap event attributed to the frame-free file"
        "lib/fixture/locker.ml" file
  | other -> Alcotest.fail (Fmt.str "expected one unsound event, got %d" (List.length other)));
  check Alcotest.int "the priced module's events are covered" 0
    (List.length (K.unsound_kmem_events ~files ~result:k [ ev "svc" ]));
  check Alcotest.int "a scratch heap with no module is skipped" 0
    (List.length (K.unsound_kmem_events ~files ~result:k [ ev "scratch" ]))

(* kdur: barrier discipline and durability ordering (R16-R18) ------------ *)

module D = Klint.Kdur

let kdur_ids (d : D.result) = List.map (fun f -> F.rule_id f.F.rule) d.D.findings

let test_kdur_r16_read_back () =
  (* ALICE's ordering bug: write, read the volatile content back, write a
     dependent block — R16 without a barrier, clean with one. *)
  let src flushed =
    "let ( let* ) = Result.bind\n\
     let chained io a =\n\
    \  let* () = io.Kblock.Io.write 1 a in\n\
    \  let* prev = io.Kblock.Io.read 1 in\n"
    ^ (if flushed then "  let* () = io.Kblock.Io.flush () in\n" else "")
    ^ "  let* () = io.Kblock.Io.write 2 prev in\n\
      \  Ok ()\n"
  in
  let _, bad = lint_tree_fixture [ ("lib/fixture/log.ml", src false) ] in
  check ids "dependent write on a read-back is R16" [ "R16" ] (kdur_ids bad.E.kdur);
  let f = List.hd bad.E.kdur.D.findings in
  check Alcotest.string "at the dependent write" "Log.chained" f.F.func;
  check Alcotest.bool "ladder findings stay separate" false
    (List.exists (fun f -> f.F.rule = F.R16_unordered_write) bad.E.findings);
  let _, good = lint_tree_fixture [ ("lib/fixture/log.ml", src true) ] in
  check ids "an intervening barrier clears the taint" [] (kdur_ids good.E.kdur)

let test_kdur_r16_match_bind () =
  (* The same read-back through a [match] instead of [let*]: the case
     pattern binds the volatile payload, and a barrier before the
     dependent write clears it. *)
  let src flushed =
    "let chained io a =\n\
    \  let _ = io.Kblock.Io.write 1 a in\n\
    \  match io.Kblock.Io.read 1 with\n\
    \  | Error _ -> ()\n\
    \  | Ok prev ->\n"
    ^ (if flushed then "    let _ = io.Kblock.Io.flush () in\n" else "")
    ^ "    ignore (io.Kblock.Io.write 2 prev)\n"
  in
  let _, bad = lint_tree_fixture [ ("lib/fixture/log.ml", src false) ] in
  check ids "match-bound read-back is R16" [ "R16" ] (kdur_ids bad.E.kdur);
  let _, good = lint_tree_fixture [ ("lib/fixture/log.ml", src true) ] in
  check ids "a barrier in the Ok case clears it" [] (kdur_ids good.E.kdur)

let test_kdur_r16_derived_taint () =
  (* Taint flows through derivation: a binding computed from a volatile
     payload is as volatile as the payload. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/log.ml",
          "let ( let* ) = Result.bind\n\
           let stamp io a =\n\
          \  let* () = io.Kblock.Io.write 1 a in\n\
          \  let tagged = Bytes.cat a a in\n\
          \  io.Kblock.Io.write 2 tagged\n" );
      ]
  in
  check ids "derived payload is R16" [ "R16" ] (kdur_ids tree.E.kdur)

let test_kdur_r17_durable_ack () =
  (* The @durable contract: Ok while the device is still volatile is the
     missing-barrier journal mutant's signature. *)
  let src ~annot ~flushed =
    "let ( let* ) = Result.bind\n"
    ^ (if annot then "(** @durable *)\n" else "")
    ^ "let commit io b =\n\
      \  let* () = io.Kblock.Io.write 0 b in\n"
    ^ (if flushed then "  let* () = io.Kblock.Io.flush () in\n" else "")
    ^ "  Ok ()\n"
  in
  let _, bad = lint_tree_fixture [ ("lib/fixture/jnl.ml", src ~annot:true ~flushed:false) ] in
  check ids "volatile Ok under @durable is R17" [ "R17" ] (kdur_ids bad.E.kdur);
  (* >=: the parser attaches a doc comment to both neighbouring items, so
     the ( let* ) binding above can pick the contract up too *)
  check Alcotest.bool "the contract is counted" true (bad.E.kdur.D.durable_funcs >= 1);
  let _, good = lint_tree_fixture [ ("lib/fixture/jnl.ml", src ~annot:true ~flushed:true) ] in
  check ids "a barrier before the ack discharges it" [] (kdur_ids good.E.kdur);
  let _, plain = lint_tree_fixture [ ("lib/fixture/jnl.ml", src ~annot:false ~flushed:false) ] in
  check ids "without the contract a volatile return is legal" []
    (kdur_ids plain.E.kdur)

let test_kdur_r18_obligation_dropped () =
  (* Interprocedural: a callee re-exports its flush obligation
     (@orders_after); a wrapper that forwards it while stating no
     contract of its own loses the obligation at the boundary. *)
  let log_ml =
    "(** Volatile append; the caller keeps the flush obligation.\n\
    \    @orders_after: t *)\n\
     let append t data = t.Kblock.Io.write 1 data\n"
  in
  let wrap body = [ ("lib/fixture/log.ml", log_ml); ("lib/fixture/wrap.ml", body) ] in
  let _, bad = lint_tree_fixture (wrap "let forward t data = Log.append t data\n") in
  check ids "silent forwarding drops the obligation" [ "R18" ] (kdur_ids bad.E.kdur);
  let f = List.hd bad.E.kdur.D.findings in
  check Alcotest.string "flagged at the wrapper" "lib/fixture/wrap.ml" f.F.file;
  check Alcotest.string "in the forwarding function" "Wrap.forward" f.F.func;
  let _, declared =
    lint_tree_fixture
      (wrap "(** @orders_after: t *)\nlet forward t data = Log.append t data\n")
  in
  check ids "re-exporting the contract discharges it" [] (kdur_ids declared.E.kdur);
  let _, flushed =
    lint_tree_fixture
      (wrap
         "let ( let* ) = Result.bind\n\
          let forward t data =\n\
         \  let* _ = Log.append t data in\n\
         \  t.Kblock.Io.flush ()\n")
  in
  check ids "a barrier in the wrapper discharges it" [] (kdur_ids flushed.E.kdur);
  (* annotation beats inference: a callee contracted @flushes is a full
     barrier even when doc and attribute forms disagree — the union is
     taken and the stronger contract wins at the call site *)
  let _, mixed =
    lint_tree_fixture
      [
        ( "lib/fixture/log.ml",
          "(** @orders_after: t *)\n\
           let append t data = t.Kblock.Io.write 1 data [@@flushes \"t\"]\n" );
        ("lib/fixture/wrap.ml", "let forward t data = Log.append t data\n");
      ]
  in
  check ids "a flushing callee leaves nothing to forward" [] (kdur_ids mixed.E.kdur)

let test_kdur_baseline_roundtrip () =
  (* dur.baseline rides the shared Counts engine: save/load round-trip
     and the regression/progress split. *)
  let module C = Klint.Baseline.Counts in
  let e rule file count = { C.b_rule = rule; b_file = file; b_count = count } in
  let base =
    (* pre-sorted (file, then rule): load returns sorted entries *)
    [
      e F.R17_ack_before_durable "lib/kblock/journal.ml" 2;
      e F.R16_unordered_write "lib/kfs/rawlog_unsafe.ml" 2;
    ]
  in
  let path = Filename.temp_file "dur_baseline" ".txt" in
  D.save_baseline path base;
  (match D.load_baseline path with
  | Ok loaded -> check Alcotest.bool "save/load round-trip" true (loaded = base)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  let current =
    [
      e F.R16_unordered_write "lib/kfs/rawlog_unsafe.ml" 3;
      e F.R17_ack_before_durable "lib/kblock/journal.ml" 1;
    ]
  in
  let regressions, progress = C.compare_counts ~baseline:base current in
  (match regressions with
  | [ r ] ->
      check Alcotest.string "one regression, in the grown file" "lib/kfs/rawlog_unsafe.ml"
        r.C.d_file;
      check Alcotest.int "live count" 3 r.C.d_have;
      check Alcotest.int "grandfathered count" 2 r.C.d_allowed
  | _ -> Alcotest.fail "expected exactly one regression");
  match progress with
  | [ p ] -> check Alcotest.int "the shrunk file is progress" 1 p.C.d_have
  | _ -> Alcotest.fail "expected exactly one progress entry"

let test_kdur_wcache_reconciliation () =
  (* The runtime closure: export lines parse (malformed ones are hard
     errors), caches attribute to linted files by module basename, and a
     violation survives only when its file has no static R16 at all. *)
  let path = Filename.temp_file "kdur_wv" ".txt" in
  let oc = open_out path in
  output_string oc "rawlog_unsafe\t1\t5\t2\t6\n\nwc\t3\t1\t4\t2\n";
  close_out oc;
  (match D.read_wcache_violations path with
  | Ok [ a; b ] ->
      check Alcotest.string "cache" "rawlog_unsafe" a.D.cache;
      check Alcotest.int "read block" 1 a.D.v_blkno;
      check Alcotest.int "read seq" 5 a.D.v_read_seq;
      check Alcotest.int "write block" 2 a.D.v_write_blkno;
      check Alcotest.int "write seq" 6 a.D.v_write_seq;
      check Alcotest.string "blank lines skipped, second entry kept" "wc" b.D.cache
  | Ok other -> Alcotest.failf "expected two violations, got %d" (List.length other)
  | Error msg -> Alcotest.fail msg);
  let oc = open_out path in
  output_string oc "rawlog_unsafe\t1\t5\tnope\t6\n";
  close_out oc;
  (match D.read_wcache_violations path with
  | Ok _ -> Alcotest.fail "malformed line parsed"
  | Error _ -> ());
  Sys.remove path;
  let files = [ "lib/kfs/rawlog_unsafe.ml"; "lib/kblock/wcache.ml" ] in
  let ev cache = { D.cache; v_blkno = 1; v_read_seq = 1; v_write_blkno = 2; v_write_seq = 2 } in
  let r16 =
    {
      F.rule = F.R16_unordered_write;
      file = "lib/kfs/rawlog_unsafe.ml";
      line = 1;
      col = 0;
      func = "f";
      message = "";
    }
  in
  check Alcotest.int "a statically flagged file is covered" 0
    (List.length
       (D.unflagged_wcache_violations ~files ~findings:[ r16 ] [ ev "rawlog_unsafe" ]));
  (match
     D.unflagged_wcache_violations ~files ~findings:[]
       [ ev "rawlog_unsafe"; ev "rawlog_unsafe" ]
   with
  | [ (cache, file, n) ] ->
      check Alcotest.string "uncovered cache survives" "rawlog_unsafe" cache;
      check Alcotest.string "attributed to its file" "lib/kfs/rawlog_unsafe.ml" file;
      check Alcotest.int "aggregated" 2 n
  | other -> Alcotest.failf "expected one unsound cache, got %d" (List.length other));
  check Alcotest.int "a cache naming no linted file is skipped" 0
    (List.length (D.unflagged_wcache_violations ~files ~findings:[] [ ev "wc" ]));
  check Alcotest.int "a mechanism-file cache is skipped by design" 0
    (List.length (D.unflagged_wcache_violations ~files ~findings:[] [ ev "wcache" ]))

(* Annotation grammar edge cases ----------------------------------------- *)

let test_annot_forms_and_merge () =
  (* Doc-comment and attribute forms on the same binding union; the .mli
     val's contract merges in on top. *)
  let root, _ =
    lint_tree_fixture
      [
        ( "lib/fixture/ann.ml",
          "(** @flushes: a *)\n\
           let f x = x [@@flushes \"b\"]\n\
           let g x = x [@@durable]\n\
           let h x = x\n" );
        ( "lib/fixture/ann.mli",
          "(** @orders_after: t *)\n\
           val f : 'a -> 'a\n\n\
           val g : 'a -> 'a\n\n\
           (** @durable *)\n\
           val h : 'a -> 'a\n" );
      ]
  in
  let files =
    List.filter_map
      (fun rel ->
        match Klint.Kparse.parse (Filename.concat root rel) with
        | Ok s -> Some (rel, s)
        | Error _ -> None)
      [ "lib/fixture/ann.ml" ]
  in
  let cg = Klint.Callgraph.build ~root files in
  let annot name =
    (List.find (fun f -> String.equal (Klint.Callgraph.name f) name)
       cg.Klint.Callgraph.funcs)
      .Klint.Callgraph.annot
  in
  check ids "doc and attribute forms union" [ "a"; "b" ] (annot "Ann.f").Klint.Annot.flushes;
  check ids "mli contract merges on top" [ "t" ] (annot "Ann.f").Klint.Annot.orders_after;
  check Alcotest.bool "attribute boolean form" true (annot "Ann.g").Klint.Annot.durable;
  check Alcotest.bool "mli-only boolean contract" true (annot "Ann.h").Klint.Annot.durable

let test_annot_unknown_marker_diagnostics () =
  (* The typo'd @must_hol that would silently weaken a contract is
     diagnosable; odoc's own tags and plain prose stay quiet. *)
  check ids "typo'd marker diagnosed" [ "@must_hol" ]
    (Klint.Annot.unknown_markers
       "Updates the size.\n@must_hol: i_lock\n@param n the new size\n@flushes: h\n");
  check ids "odoc tags and known markers stay quiet" []
    (Klint.Annot.unknown_markers
       "@see <url> docs\n@return the size\n@durable\n@orders_after: t\n");
  check ids "emails are not markers" []
    (Klint.Annot.unknown_markers "Contact dev@example.com about this.\n")

(* The shipped tree ------------------------------------------------------ *)

let with_repo_root f =
  (* dune runs tests from _build/default/test; the dune-project marker is
     only at the real root, so find_root lands on the source tree.  Skip
     quietly when the tree is not on disk (e.g. an installed test). *)
  match Klint.find_root () with
  | Some root when Sys.file_exists (Filename.concat root "lib") -> f root
  | _ -> ()

let test_shipped_tree_clean () =
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      check Alcotest.int "whole tree parses" 0 (List.length tree.E.parse_errors);
      check Alcotest.bool "the exhibits keep their findings" true (tree.E.findings <> []);
      let baseline =
        match B.load (Filename.concat root "klint.baseline") with
        | Ok b -> b
        | Error msg -> Alcotest.fail msg
      in
      let registry =
        Safeos_core.Boot.registry ~loc_of:(fun name -> Klint.registry_loc ~root name) ()
      in
      let r = E.reconcile ~registry ~baseline tree.E.findings in
      check Alcotest.int "shipped tree has no violations" 0 (List.length r.E.violations);
      check Alcotest.int "checked-in baseline is not stale" 0
        (List.length r.E.stale_baseline);
      (* every finding lands in a known subsystem *)
      List.iter
        (fun a -> check Alcotest.bool "attributed" true (a.E.sub <> "unmapped"))
        r.E.attributed;
      (* the report's level histogram is the registry's, verbatim *)
      let json = Klint.Report.to_json ~registry tree r in
      let contains needle =
        let nl = String.length needle and jl = String.length json in
        let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
        at 0
      in
      List.iter
        (fun (level, n) ->
          let needle = Fmt.str "%S: %d" (Level.to_string level) n in
          check Alcotest.bool ("level_counts has " ^ needle) true (contains needle))
        (Safeos_core.Registry.level_counts registry);
      (* and every registered subsystem appears as a per-subsystem row *)
      List.iter
        (fun e ->
          let needle = Fmt.str "\"name\": %S" e.Safeos_core.Registry.name in
          check Alcotest.bool ("subsystem row " ^ needle) true (contains needle))
        (Safeos_core.Registry.all registry))

let test_kown_shipped_exhibits () =
  (* The acceptance pair: every seeded lifetime exhibit in memfs_unsafe
     is flagged (then baselined), and the ownership-safe twin carries
     zero R8–R11 findings. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let has rule =
        List.exists
          (fun f -> String.equal f.F.file "lib/kfs/memfs_unsafe.ml" && f.F.rule = rule)
          tree.E.findings
      in
      check Alcotest.bool "memfs_unsafe dangling store caught (R8)" true
        (has F.R8_use_after_free);
      check Alcotest.bool "memfs_unsafe double free caught (R9)" true (has F.R9_double_free);
      check Alcotest.bool "memfs_unsafe leak arm caught (R10)" true (has F.R10_error_leak);
      let owned_findings =
        List.filter
          (fun f -> String.equal f.F.file "lib/kfs/memfs_owned.ml" && is_own_rule f.F.rule)
          tree.E.findings
      in
      check Alcotest.int "memfs_owned is ownership-clean" 0 (List.length owned_findings))

let test_ktcb_shipped_tree () =
  (* The framekernel acceptance self-lint: on the shipped tree every
     R12/R13 lands in a declared exhibit, no frame export leaks an owned
     capability, the unsafe TCB is a strict minority of the kernel, and
     the checked-in count ratchet matches the live findings exactly. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let k = tree.E.ktcb in
      List.iter
        (fun (f : F.t) ->
          match f.F.rule with
          | F.R12_unsafe_primitive | F.R13_frame_bypass ->
              check Alcotest.bool (f.F.file ^ " is a declared exhibit") true
                (Fr.is_exhibit f.F.file)
          | F.R14_unsound_export ->
              Alcotest.fail ("unsound frame export shipped: " ^ f.F.file)
          | _ -> Alcotest.fail "foreign rule in ktcb findings")
        k.K.findings;
      check Alcotest.bool "the exhibits keep their specimens" true (k.K.findings <> []);
      check Alcotest.bool "memfs_unsafe stays an R12 specimen" true
        (List.exists
           (fun (f : F.t) ->
             f.F.rule = F.R12_unsafe_primitive
             && String.equal f.F.file "lib/kfs/memfs_unsafe.ml")
           k.K.findings);
      check Alcotest.bool "the frame exists" true (k.K.frame_files > 0);
      check Alcotest.bool "the frame surface is measured" true (k.K.surface_vals > 0);
      check Alcotest.bool "unsafe TCB is a strict minority" true
        (k.K.unsafe_loc * 2 < k.K.total_loc);
      let baseline =
        match K.load (Filename.concat root "tcb.baseline") with
        | Ok b -> b
        | Error msg -> Alcotest.fail msg
      in
      let regressions, progress =
        K.compare_counts ~baseline (K.counts_of_findings k.K.findings)
      in
      check Alcotest.int "no tcb regressions" 0 (List.length regressions);
      check Alcotest.int "checked-in tcb baseline is not stale" 0 (List.length progress);
      (* runtime heap traffic from the frame's own allocator is priced *)
      let files = Klint.Loc.ml_files_under ~root "lib" in
      let ev = { Klint.Kown.kind = "free"; heap = "kmem"; site = "s"; count = 1 } in
      check Alcotest.int "frame heap traffic is priced" 0
        (List.length (K.unsound_kmem_events ~files ~result:k [ ev ])))

let test_kdur_shipped_tree () =
  (* The durability acceptance self-lint: every R16-R18 on the shipped
     tree lands in a declared exhibit (the journal's ?barriers:false
     ablation paths or the rawlog specimen file), the rawlog exhibit
     keeps one specimen per rule, the annotated write paths are seen as
     contracts, and the checked-in count ratchet matches the live
     findings exactly. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let d = tree.E.kdur in
      check Alcotest.bool "the exhibits keep their findings" true (d.D.findings <> []);
      let exhibits = [ "lib/kblock/journal.ml"; "lib/kfs/rawlog_unsafe.ml" ] in
      List.iter
        (fun (f : F.t) ->
          check Alcotest.bool (f.F.file ^ " is a declared exhibit") true
            (List.mem f.F.file exhibits))
        d.D.findings;
      let rawlog_has rule =
        List.exists
          (fun (f : F.t) ->
            f.F.rule = rule && String.equal f.F.file "lib/kfs/rawlog_unsafe.ml")
          d.D.findings
      in
      check Alcotest.bool "rawlog keeps its R16 specimen" true
        (rawlog_has F.R16_unordered_write);
      check Alcotest.bool "rawlog keeps its R17 specimen" true
        (rawlog_has F.R17_ack_before_durable);
      check Alcotest.bool "rawlog keeps its R18 specimen" true
        (rawlog_has F.R18_barrier_elision);
      check Alcotest.bool "the journal mutant stays convicted" true
        (List.exists
           (fun (f : F.t) -> String.equal f.F.file "lib/kblock/journal.ml")
           d.D.findings);
      (* the annotated write paths registered as contracts *)
      check Alcotest.bool "durable contracts are seen" true (d.D.durable_funcs >= 4);
      check Alcotest.bool "ordering contracts are seen" true (d.D.ordering_funcs >= 2);
      check Alcotest.bool "the tree has flushing functions" true (d.D.flushing_funcs > 0);
      let baseline =
        match D.load_baseline (Filename.concat root "dur.baseline") with
        | Ok b -> b
        | Error msg -> Alcotest.fail msg
      in
      let regressions, progress =
        Klint.Baseline.Counts.compare_counts ~baseline
          (Klint.Baseline.Counts.of_findings d.D.findings)
      in
      check Alcotest.int "no dur regressions" 0 (List.length regressions);
      check Alcotest.int "checked-in dur baseline is not stale" 0 (List.length progress))

let test_loc_derivation () =
  with_repo_root (fun root ->
      match Klint.registry_loc ~root "tcp" with
      | None -> Alcotest.fail "tcp sources missing from the source map"
      | Some n ->
          check Alcotest.bool "tcp has code" true (n > 0);
          let registry =
            Safeos_core.Boot.registry
              ~loc_of:(fun name -> Klint.registry_loc ~root name)
              ()
          in
          (match Safeos_core.Registry.find registry "tcp" with
          | Some e -> check Alcotest.int "registry loc derived from source" n e.Safeos_core.Registry.loc
          | None -> Alcotest.fail "tcp not in the boot registry");
          check (Alcotest.option Alcotest.int) "unknown subsystem has no loc" None
            (Klint.registry_loc ~root "not_a_subsystem"))

(* kverify: the R15 "verified means checked" pass --------------------------- *)

module KV = Klint.Kverify

(* A throwaway registry with one Verified claim and one Type_safe one —
   just enough surface for the R15 predicate. *)
let toy_registry () =
  let r = Safeos_core.Registry.create () in
  let reg name level =
    ignore
      (Safeos_core.Registry.register r ~name ~kind:Safeos_core.Registry.File_system
         ~level
         ~iface:(Safeos_core.Interface.v ~name ~version:1 ~supports:Level.Verified [])
         ~loc:100 ~description:"fixture" ())
  in
  reg "provenfs" Level.Verified;
  reg "plainfs" Level.Type_safe;
  r

let test_kverify_scan_registrations () =
  (* The scanner keys on the literal Kharness.harness ~name ~subsystem
     call shape, wherever the module path puts it. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/reg.ml",
          "let h1 = Kharness.harness ~name:\"provenfs\" ~subsystem:\"provenfs\" packed\n\
           let h2 =\n\
          \  Harness.harness ~subsystem:\"other\" ~name:\"other.crash\" (pack ())\n\
           let not_one = harness_like ~name:\"x\" ~subsystem:\"y\" packed\n\
           let also_not = Kharness.harness ~name:\"z\" (pack ())\n" );
      ]
  in
  let regs = tree.E.kverify.KV.registrations in
  check Alcotest.int "two literal registrations found" 2 (List.length regs);
  let by_name n = List.find (fun r -> r.KV.reg_name = n) regs in
  check Alcotest.string "subsystem captured" "provenfs" (by_name "provenfs").KV.reg_subsystem;
  check Alcotest.string "label order does not matter" "other"
    (by_name "other.crash").KV.reg_subsystem;
  check Alcotest.string "file recorded" "lib/fixture/reg.ml" (by_name "provenfs").KV.reg_file;
  check Alcotest.int "line recorded" 1 (by_name "provenfs").KV.reg_line

let test_kverify_r15_fires_and_clears () =
  let registry = toy_registry () in
  (* no registrations at all: only the Verified claim is flagged *)
  (match KV.r15 ~registry { KV.registrations = [] } with
  | [ f ] ->
      check Alcotest.bool "rule is R15" true (f.F.rule = F.R15_unverified_claim);
      check Alcotest.bool "names the claiming subsystem" true
        (List.exists (fun sub -> sub = "provenfs")
           [ (String.split_on_char ' ' f.F.message |> fun ws -> List.nth ws 1) ]);
      (* Semantic bug class: forbidden exactly at the Verified rung *)
      check Alcotest.bool "violation at Verified" true
        (Level.prevents Level.Verified (F.bug_class f.F.rule));
      check Alcotest.bool "tolerated below Verified" false
        (Level.prevents Level.Ownership_safe (F.bug_class f.F.rule))
  | other -> Alcotest.fail (Fmt.str "expected one R15, got %d" (List.length other)));
  (* a registration for the right subsystem discharges the claim *)
  let covered =
    {
      KV.registrations =
        [ { KV.reg_name = "provenfs"; reg_subsystem = "provenfs";
            reg_file = "lib/x.ml"; reg_line = 1 } ];
    }
  in
  check Alcotest.int "covered claim is silent" 0 (List.length (KV.r15 ~registry covered));
  (* a harness for some *other* subsystem does not count *)
  let misdirected =
    {
      KV.registrations =
        [ { KV.reg_name = "plainfs"; reg_subsystem = "plainfs";
            reg_file = "lib/x.ml"; reg_line = 1 } ];
    }
  in
  check Alcotest.int "harness for another subsystem does not discharge it" 1
    (List.length (KV.r15 ~registry misdirected))

let test_kverify_shipped_tree_covered () =
  (* Every Verified claim in the boot registry must be backed by a
     kharness registration in the shipped sources — R15 on the real tree
     is empty, and stays empty only while that invariant holds. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let registry =
        Safeos_core.Boot.registry ~loc_of:(fun name -> Klint.registry_loc ~root name) ()
      in
      let regs = tree.E.kverify.KV.registrations in
      check Alcotest.bool "kharness registrations found" true (List.length regs >= 3);
      List.iter
        (fun sub ->
          check Alcotest.bool (sub ^ " covered") true
            (List.exists (fun r -> r.KV.reg_subsystem = sub) regs))
        [ "journalfs"; "cowfs" ];
      check Alcotest.int "no unverified Verified claims shipped" 0
        (List.length (KV.r15 ~registry tree.E.kverify));
      (* sanity: breaking the invariant would fire — a registry where
         a subsystem with no harness claims Verified *)
      let broken = toy_registry () in
      check Alcotest.int "an uncovered Verified claim would fire" 1
        (List.length (KV.r15 ~registry:broken tree.E.kverify)))

let test_kverify_coverage_ratchet () =
  let row name sub ops =
    {
      KV.cov_harness = name; cov_subsystem = sub; cov_ops = ops; cov_states = ops + 7;
      cov_crash_points = ops / 4; cov_crash_images = ops / 2; cov_skipped = 1;
      cov_divergences = 0; cov_deepest = -1; cov_fingerprint = "0123456789abcdef";
    }
  in
  let rows = [ row "journalfs" "journalfs" 1000; row "cowfs" "cowfs" 800 ] in
  (* row round-trip through the on-disk line format *)
  List.iter
    (fun r ->
      match KV.row_of_line (KV.row_to_line r) with
      | Ok r' -> check Alcotest.bool "row round-trips" true (r = r')
      | Error msg -> Alcotest.fail msg)
    rows;
  (match KV.row_of_line "harness x mangled" with
  | Ok _ -> Alcotest.fail "mangled row parsed?"
  | Error _ -> ());
  (* file round-trip *)
  let path = Filename.temp_file "kverify" ".coverage" in
  KV.save_coverage path rows;
  (match KV.load_coverage path with
  | Ok rows' -> check Alcotest.bool "coverage file round-trips" true (rows = rows')
  | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  (* the floor aggregates, round-trips, and ratchets in both directions *)
  let f = KV.floor_of_rows rows in
  check Alcotest.int "floor harness count" 2 f.KV.min_harnesses;
  check Alcotest.int "floor ops sum" 1800 f.KV.min_ops;
  check Alcotest.int "floor crash-image sum" 900 f.KV.min_crash_images;
  (match KV.floor_of_string (KV.floor_to_string f) with
  | Ok f' -> check Alcotest.bool "floor round-trips" true (f = f')
  | Error msg -> Alcotest.fail msg);
  let regressions, progress =
    KV.compare_floor ~baseline:f (KV.floor_of_rows [ row "journalfs" "journalfs" 1000 ])
  in
  check Alcotest.bool "losing a harness regresses" true
    (List.exists (fun (m, _, _) -> m = "harnesses") regressions);
  check Alcotest.bool "fewer ops regress" true
    (List.exists (fun (m, _, _) -> m = "ops") regressions);
  check Alcotest.int "nothing improved" 0 (List.length progress);
  let regressions, progress =
    KV.compare_floor ~baseline:f
      (KV.floor_of_rows (row "micro" "journalfs" 200 :: rows))
  in
  check Alcotest.int "growing coverage is not a regression" 0 (List.length regressions);
  check Alcotest.bool "and is reported as progress" true (List.length progress >= 2)

let test_effective_loc () =
  let src =
    "(* header *)\n\n\
     let x = 1\n\
     (* multi\n\
    \   line (* nested *) comment\n\
    \   still comment *)\n\
     let y = \"(* not a comment *)\"\n"
  in
  check Alcotest.int "comments and blanks do not count" 2 (Klint.Loc.count_string src)

(* One whole-tree model ---------------------------------------------------- *)

module CG = Klint.Callgraph
module O = Klint.Ownset
module Ds = Klint.Durset

let findings_t = Alcotest.(list (testable F.pp ( = )))

let test_broken_mli_reported () =
  (* An unparsable .mli must not drop its contracts silently: it lands in
     [parse_errors], where klint exits 2.  So does a broken frame
     surface, which ktcb would otherwise count as 0 vals. *)
  let _, tree =
    lint_tree_fixture
      [
        ("lib/fixture/res.ml", "let release p = Ksim.Kmem.free p\n");
        ("lib/fixture/res.mli", "(** @consumes: p *)\nval release : = \n");
        ("lib/fixture/ok.ml", "let f x = x\n");
        ("lib/fixture/ok.mli", "val f : 'a -> 'a\n");
        ("lib/ksim/frame.ml", "let x = 1\n");
        ("lib/ksim/frame.mli", "val x : int\nval\n");
      ]
  in
  check ids "each broken interface reported once, in file order"
    [ "lib/fixture/res.mli"; "lib/ksim/frame.mli" ]
    (List.map fst tree.E.parse_errors);
  check ids "ktcb reports the frame surface it could not count" [ "lib/ksim/frame.mli" ]
    (List.map fst tree.E.ktcb.K.parse_errors);
  check Alcotest.int "and counts no vals" 0 tree.E.ktcb.K.surface_vals;
  let _, clean = lint_tree_fixture [ ("lib/fixture/ok.ml", "let f x = x\n") ] in
  check ids "a tree without a frame surface has no errors" [] (List.map fst clean.E.parse_errors)

(* [name]1 calls [name]2 ... calls [name][depth], whose body is [last]:
   callee-last, so a sweep in definition order moves a fact one hop per
   round, and a sweep loop capped at 32 rounds would report from
   summaries that have not converged. *)
let chain_depth = 40

let chain ~name ~params ~last =
  "let rec "
  ^ String.concat "\nand "
      (List.init chain_depth (fun i ->
           let i = i + 1 in
           if i < chain_depth then Printf.sprintf "%s%d %s = %s%d %s" name i params name (i + 1) params
           else Printf.sprintf "%s%d %s = %s" name i params last))
  ^ "\n"

let chain_names ~modname ~name =
  List.init chain_depth (fun i -> Printf.sprintf "%s.%s%d" modname name (i + 1))

let test_kown_deep_chain_and_recursion () =
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/deep.ml",
          chain ~name:"c" ~params:"p" ~last:"Ksim.Kmem.free p"
          ^ "let rec ping p n = if n = 0 then Ksim.Kmem.free p else pong p (n - 1)\n\
             and pong p n = ping p (n - 1)\n\
             let user p = c1 p; Ksim.Kmem.read p\n\
             let twice p = ping p 3; Ksim.Kmem.free p\n" );
      ]
  in
  let summaries = tree.E.kown.Klint.Kown.summaries in
  List.iter
    (fun name ->
      match List.assoc_opt name summaries with
      | Some s ->
          check ids (name ^ " consumes p") [ "p" ] (O.SS.elements s.O.consumes);
          check Alcotest.bool (name ^ " returns nothing owned") false s.O.returns_owned
      | None -> Alcotest.fail (name ^ " has no summary"))
    (chain_names ~modname:"Deep" ~name:"c" @ [ "Deep.ping"; "Deep.pong"; "Deep.user"; "Deep.twice" ]);
  check Alcotest.int "exactly the chain, the pair and their callers consume" (chain_depth + 4)
    (List.length summaries);
  check ids "use after the chain frees, double free after the pair" [ "R8"; "R9" ]
    (rule_ids tree.E.kown.Klint.Kown.findings);
  check ids "in the callers" [ "Deep.user"; "Deep.twice" ]
    (List.map (fun f -> f.F.func) tree.E.kown.Klint.Kown.findings)

let test_kdur_deep_chain_and_recursion () =
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/deep.ml",
          chain ~name:"w" ~params:"t x" ~last:"t.Kblock.Io.write 1 x"
          ^ chain ~name:"f" ~params:"t" ~last:"t.Kblock.Io.flush ()"
          ^ "let rec wa t n = if n = 0 then t.Kblock.Io.write 1 n else wb t (n - 1)\n\
             and wb t n = wa t (n - 1)\n\
             let rec fa t n = if n = 0 then t.Kblock.Io.flush () else fb t (n - 1)\n\
             and fb t n = fa t (n - 1)\n\
             let ( let* ) = Result.bind\n\
             let commit_chain t x =\n\
            \  let* () = w1 t x in\n\
            \  Ok () [@@durable]\n\
             let commit_pair t =\n\
            \  let* () = wa t 3 in\n\
            \  Ok () [@@durable]\n\
             let commit_flushed t x =\n\
            \  let* () = w1 t x in\n\
            \  let* () = wa t 3 in\n\
            \  let* () = f1 t in\n\
            \  let* () = fa t 3 in\n\
            \  Ok () [@@durable]\n" );
      ]
  in
  let summaries = tree.E.kdur.D.summaries in
  let summary name =
    match List.assoc_opt name summaries with
    | Some s -> s
    | None -> Alcotest.fail (name ^ " has no summary")
  in
  List.iter
    (fun name ->
      let s = summary name in
      check Alcotest.bool (name ^ " writes") true s.Ds.writes;
      check Alcotest.bool (name ^ " leaves the device volatile") true s.Ds.out_clean;
      check Alcotest.bool (name ^ " has no barrier") false s.Ds.flushes)
    (chain_names ~modname:"Deep" ~name:"w" @ [ "Deep.wa"; "Deep.wb" ]);
  List.iter
    (fun name ->
      let s = summary name in
      check Alcotest.bool (name ^ " flushes") true s.Ds.flushes;
      check Alcotest.bool (name ^ " leaves the device clean") false s.Ds.out_clean;
      check Alcotest.bool (name ^ " writes nothing") false s.Ds.writes)
    (chain_names ~modname:"Deep" ~name:"f" @ [ "Deep.fa"; "Deep.fb" ]);
  check ids "volatile acks through the chain and the pair" [ "R17"; "R17" ]
    (kdur_ids tree.E.kdur);
  check ids "in the unflushed commits" [ "Deep.commit_chain"; "Deep.commit_pair" ]
    (List.map (fun f -> f.F.func) tree.E.kdur.D.findings)

let test_fixpoint_shadowed_name () =
  (* Two definitions of one name: the last owns the summary, the rule
     [Callgraph.resolve] applies to same-file calls, so the pair cannot
     flip one shared entry back and forth. *)
  let _, tree =
    lint_tree_fixture
      [
        ( "lib/fixture/dup.ml",
          "let drop p = Ksim.Kmem.free p
           let drop p = ignore p
           let twice p = drop p; Ksim.Kmem.free p
" );
      ]
  in
  check ids "only the caller's own free is summarised" [ "Dup.twice" ]
    (List.map fst tree.E.kown.Klint.Kown.summaries);
  check ids "the call reaches the borrowing definition" []
    (rule_ids tree.E.kown.Klint.Kown.findings)

let test_fixpoint_divergence_is_named () =
  (* A summary that never settles is an error with a name, not a report
     from unconverged summaries. *)
  let root, _ = lint_tree_fixture [ ("lib/fixture/osc.ml", "let flip x = flip x\n") ] in
  let parsed, _ = Klint.Kparse.parse_files ~root [ "lib/fixture/osc.ml" ] in
  let cg = CG.build ~root parsed in
  match
    Klint.Fixpoint.solve ~pass:"test" ~empty:false ~equal:Bool.equal
      (fun ~lookup ~emit:_ f -> not (lookup (CG.name f)))
      cg.CG.funcs
  with
  | _ -> Alcotest.fail "an oscillating summary converged?"
  | exception Klint.Fixpoint.Diverged { pass; func; changes } ->
      check Alcotest.string "names the pass" "test" pass;
      check Alcotest.string "names the function" "Osc.flip" func;
      check Alcotest.int "after the backstop" Klint.Fixpoint.max_changes changes

let excluders =
  [
    ("kracer", fun rel -> not (Klint.Kracer.excluded rel));
    ("kown", fun rel -> not (Klint.Kown.excluded rel));
    ("kdur", fun rel -> not (Klint.Kdur.excluded rel));
  ]

let test_shared_model_matches_standalone () =
  (* [Engine.lint_tree] shares one graph between the passes; each pass
     run on its own, building its own graph, must give the same result,
     compared structure by structure. *)
  with_repo_root (fun root ->
      let tree = E.lint_tree ~root in
      let parsed, _ = Klint.Kparse.parse_files ~root tree.E.files in
      let kracer = Klint.Kracer.analyze ~root parsed in
      let kown = Klint.Kown.analyze ~root parsed in
      let ktcb = K.analyze ~root parsed ~summaries:kown.Klint.Kown.summaries in
      let kdur = D.analyze ~root parsed in
      let rules =
        List.concat_map (fun (rel, s) -> E.lint_structure ~file:rel ~prefix:"" s) parsed
      in
      check findings_t "ladder findings"
        (F.sort (kown.Klint.Kown.findings @ kracer.Klint.Kracer.findings @ rules))
        tree.E.findings;
      let r = tree.E.kracer in
      check findings_t "kracer findings" kracer.Klint.Kracer.findings r.Klint.Kracer.findings;
      check Alcotest.bool "kracer edges" true (kracer.Klint.Kracer.edges = r.Klint.Kracer.edges);
      check Alcotest.bool "kracer cycles" true (kracer.Klint.Kracer.cycles = r.Klint.Kracer.cycles);
      check Alcotest.bool "kracer guards" true (kracer.Klint.Kracer.guards = r.Klint.Kracer.guards);
      check Alcotest.int "kracer functions" kracer.Klint.Kracer.funcs r.Klint.Kracer.funcs;
      check Alcotest.int "kracer unresolved calls" kracer.Klint.Kracer.unresolved_calls
        r.Klint.Kracer.unresolved_calls;
      let o = tree.E.kown in
      check findings_t "kown findings" kown.Klint.Kown.findings o.Klint.Kown.findings;
      check Alcotest.int "kown functions" kown.Klint.Kown.funcs o.Klint.Kown.funcs;
      check Alcotest.int "kown consuming" kown.Klint.Kown.consuming o.Klint.Kown.consuming;
      check Alcotest.int "kown returning owned" kown.Klint.Kown.returning_owned
        o.Klint.Kown.returning_owned;
      check Alcotest.bool "kown summaries" true
        (List.equal
           (fun (a, s) (b, s') -> String.equal a b && O.summary_equal s s')
           kown.Klint.Kown.summaries o.Klint.Kown.summaries);
      check Alcotest.bool "ktcb result, rows included" true (ktcb = tree.E.ktcb);
      check Alcotest.bool "kdur result, summaries included" true (kdur = tree.E.kdur))

let test_restrict_is_build_over_kept_files () =
  (* [restrict] stands in for [build] over a pass's files: the same
     functions in the same order, the same contracts, and the same
     resolution at every call site in lib/. *)
  with_repo_root (fun root ->
      let parsed, _ = Klint.Kparse.parse_files ~root (Klint.Loc.ml_files_under ~root "lib") in
      let whole = CG.build ~root parsed in
      let key (f : CG.func) =
        Fmt.str "%s:%d:%s" f.CG.file f.CG.loc.Location.loc_start.Lexing.pos_lnum (CG.name f)
      in
      let resolved cg (f : CG.func) =
        let acc = ref [] in
        K.deep_iter_expr
          (fun e ->
            match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_ident { txt; _ } ->
                acc :=
                  (match CG.resolve cg ~caller:f (Klint.Rules.flatten txt) with
                  | Some g -> key g
                  | None -> "-")
                  :: !acc
            | _ -> ())
          f.CG.body;
        !acc
      in
      List.iter
        (fun (pass, keep) ->
          let restricted = CG.restrict whole ~keep in
          let built = CG.build ~root (List.filter (fun (rel, _) -> keep rel) parsed) in
          check ids (pass ^ ": same functions in the same order")
            (List.map key built.CG.funcs) (List.map key restricted.CG.funcs);
          check Alcotest.bool (pass ^ ": same contracts") true
            (List.equal
               (fun (a : CG.func) (b : CG.func) -> a.CG.annot = b.CG.annot)
               built.CG.funcs restricted.CG.funcs);
          List.iter2
            (fun b r ->
              check ids (pass ^ ": same resolution in " ^ key b) (resolved built b)
                (resolved restricted r))
            built.CG.funcs restricted.CG.funcs)
        excluders)

(* Allocation ceiling: words allocated per linted file by one
   [Engine.lint_tree] over lib/, counted as minor + major - promoted
   words, the figure the lint-tree benchmark reports.  It measures
   about 474k words per file (it was about 897k when each pass built
   its own call graph and kown/kdur swept every function until nothing
   changed, plus a reporting sweep).  The ceiling is 1.25x that, low
   enough that rebuilding the graph per pass fails it. *)
let lint_base_words_per_file = 474_000.0
let lint_ceiling_words_per_file = 1.25 *. lint_base_words_per_file

let test_lint_alloc_ceiling () =
  with_repo_root (fun root ->
      let words () =
        let g = Gc.quick_stat () in
        g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
      in
      let w0 = words () in
      let tree = E.lint_tree ~root in
      let w1 = words () in
      let per_file = (w1 -. w0) /. float_of_int (List.length tree.E.files) in
      Printf.printf "klint: %.0f words allocated per linted file (%d files; ceiling %.0f)\n"
        per_file (List.length tree.E.files) lint_ceiling_words_per_file;
      if per_file > lint_ceiling_words_per_file then
        Alcotest.fail
          (Printf.sprintf "klint allocation ceiling: %.0f words/file > %.0f (1.25 x %.0f)"
             per_file lint_ceiling_words_per_file lint_base_words_per_file))

let () =
  Alcotest.run "klint"
    [
      (* First, before the other cases warm the parser's tables. *)
      ( "alloc",
        [
          Alcotest.test_case "allocation ceiling (words per linted file)" `Quick
            test_lint_alloc_ceiling;
        ] );
      ( "rules",
        [
          Alcotest.test_case "r1 unchecked cast" `Quick test_r1_unchecked_cast;
          Alcotest.test_case "r2 unchecked err-ptr" `Quick test_r2_unchecked_errptr;
          Alcotest.test_case "r3 lock balance" `Quick test_r3_lock_balance;
          Alcotest.test_case "r4 ownership bypass" `Quick test_r4_ownership_bypass;
          Alcotest.test_case "r5 must-check" `Quick test_r5_must_check;
          Alcotest.test_case "r7 annotation mismatch" `Quick test_r7_annotation_mismatch;
          Alcotest.test_case "parse error reported" `Quick test_parse_error_reported;
        ] );
      ( "kracer",
        [
          Alcotest.test_case "r6 through two call hops" `Quick test_kracer_r6_two_hops;
          Alcotest.test_case "annotated chain is clean" `Quick test_kracer_r6_annotated_clean;
          Alcotest.test_case "must_hold checked at call sites" `Quick
            test_kracer_r6_must_hold_call_site;
          Alcotest.test_case "static edges and predicted cycles" `Quick
            test_kracer_static_edges_and_cycles;
          Alcotest.test_case "runtime reconciliation" `Quick test_kracer_runtime_reconciliation;
          Alcotest.test_case "mli-side contracts" `Quick test_kracer_mli_annotation;
        ] );
      ( "kown",
        [
          Alcotest.test_case "r8 across a branch join" `Quick test_kown_r8_branch_join;
          Alcotest.test_case "consumes through two call hops" `Quick
            test_kown_interprocedural_consume;
          Alcotest.test_case "r10 error-path leak" `Quick test_kown_r10_error_path;
          Alcotest.test_case "r10 asymmetric sibling arm" `Quick test_kown_r10_sibling_arm;
          Alcotest.test_case "r11 borrow escapes" `Quick test_kown_r11_borrow_escape;
          Alcotest.test_case "attribute contracts override inference" `Quick
            test_kown_annotations;
          Alcotest.test_case "mli-side ownership contracts" `Quick test_kown_mli_annotation;
          Alcotest.test_case "kmem-event reconciliation" `Quick test_kown_kmem_events;
          Alcotest.test_case "ownership claim reconciliation" `Quick
            test_kown_reconcile_ownership_claim;
          Alcotest.test_case "baseline renumbering goes stale" `Quick
            test_kown_baseline_renumbering;
        ] );
      ( "reconcile",
        [
          Alcotest.test_case "cast under type-safe claim" `Quick test_reconcile_cast_violation;
          Alcotest.test_case "unbalanced lock under ownership claim" `Quick
            test_reconcile_lock_violation;
        ] );
      ( "baseline",
        [ Alcotest.test_case "round-trip and ratchet" `Quick test_baseline_roundtrip ] );
      ( "ktcb",
        [
          Alcotest.test_case "r12 direct primitive outside the frame" `Quick
            test_ktcb_r12_direct;
          Alcotest.test_case "r13 laundering through two hops" `Quick test_ktcb_r13_depth2;
          Alcotest.test_case "r13 blessed vs unexported frame surface" `Quick
            test_ktcb_r13_frame_surface;
          Alcotest.test_case "r14 owned capability export" `Quick
            test_ktcb_r14_unsound_export;
          Alcotest.test_case "tcb count ratchet round-trip" `Quick
            test_ktcb_baseline_ratchet;
          Alcotest.test_case "runtime reconciliation attribution" `Quick
            test_ktcb_runtime_reconciliation;
        ] );
      ( "kdur",
        [
          Alcotest.test_case "r16 read-back dependent write" `Quick test_kdur_r16_read_back;
          Alcotest.test_case "r16 match-bound read-back" `Quick test_kdur_r16_match_bind;
          Alcotest.test_case "r16 derived taint" `Quick test_kdur_r16_derived_taint;
          Alcotest.test_case "r17 ack before durable" `Quick test_kdur_r17_durable_ack;
          Alcotest.test_case "r18 obligation dropped at a wrapper" `Quick
            test_kdur_r18_obligation_dropped;
          Alcotest.test_case "dur count ratchet round-trip" `Quick
            test_kdur_baseline_roundtrip;
          Alcotest.test_case "wcache runtime reconciliation" `Quick
            test_kdur_wcache_reconciliation;
          Alcotest.test_case "annotation forms and mli merge" `Quick
            test_annot_forms_and_merge;
          Alcotest.test_case "unknown-marker diagnostics" `Quick
            test_annot_unknown_marker_diagnostics;
        ] );
      ( "kverify",
        [
          Alcotest.test_case "harness registrations scanned" `Quick
            test_kverify_scan_registrations;
          Alcotest.test_case "r15 fires and clears" `Quick test_kverify_r15_fires_and_clears;
          Alcotest.test_case "shipped Verified claims are covered" `Quick
            test_kverify_shipped_tree_covered;
          Alcotest.test_case "coverage rows, floor, ratchet" `Quick
            test_kverify_coverage_ratchet;
        ] );
      ( "tree",
        [
          Alcotest.test_case "shipped tree is violation-free" `Quick test_shipped_tree_clean;
          Alcotest.test_case "ownership exhibits caught, owned twin clean" `Quick
            test_kown_shipped_exhibits;
          Alcotest.test_case "frame confinement on the shipped tree" `Quick
            test_ktcb_shipped_tree;
          Alcotest.test_case "barrier discipline on the shipped tree" `Quick
            test_kdur_shipped_tree;
          Alcotest.test_case "registry loc derived from klint" `Quick test_loc_derivation;
          Alcotest.test_case "effective line counting" `Quick test_effective_loc;
        ] );
      ( "model",
        [
          Alcotest.test_case "broken mli is a parse error" `Quick test_broken_mli_reported;
          Alcotest.test_case "kown: deep callee-last chain and recursion" `Quick
            test_kown_deep_chain_and_recursion;
          Alcotest.test_case "kdur: deep callee-last chain and recursion" `Quick
            test_kdur_deep_chain_and_recursion;
          Alcotest.test_case "a shadowed name has one owner" `Quick test_fixpoint_shadowed_name;
          Alcotest.test_case "fixpoint divergence is a named error" `Quick
            test_fixpoint_divergence_is_named;
          Alcotest.test_case "shared model equals standalone passes" `Quick
            test_shared_model_matches_standalone;
          Alcotest.test_case "restrict is build over the kept files" `Quick
            test_restrict_is_build_over_kept_files;
        ] );
    ]
