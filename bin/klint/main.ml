(* klint driver: lint lib/ against the safety ladder, reconcile with the
   boot registry's level claims, and gate CI.

   Exit codes: 0 clean (or only baselined/permitted findings),
   1 non-baselined violations or a ratchet regression, 2 operational
   errors (parse failure, missing or malformed ratchet, missing tree). *)

let ( / ) = Filename.concat

let run root_opt ratchet_opt report_opt update_ratchet allow_ratchet_change ratchet_head verbose
    lock_graph_dot refine_coverage runtime_events =
  let root =
    match root_opt with
    | Some r -> r
    | None -> (
        match Klint.find_root () with
        | Some r -> r
        | None ->
            Fmt.epr "klint: cannot find dune-project above %s (use --root)@." (Sys.getcwd ());
            exit 2)
  in
  if not (Sys.file_exists (root / "lib")) then begin
    Fmt.epr "klint: %s has no lib/ to lint@." root;
    exit 2
  end;
  let ratchet_path = match ratchet_opt with Some p -> p | None -> root / "ratchet.baseline" in
  let report_path =
    match report_opt with Some p -> p | None -> root / "_build" / "klint-report.json"
  in
  (* The same registry the kernel boots with, sized from the tree. *)
  let registry =
    Safeos_core.Boot.registry ~loc_of:(fun name -> Klint.registry_loc ~root name) ()
  in
  let tree = Klint.Engine.lint_tree ~root in
  List.iter
    (fun (file, msg) -> Fmt.epr "klint: parse error in %s:@.%s@." file msg)
    tree.Klint.Engine.parse_errors;
  if tree.Klint.Engine.parse_errors <> [] then exit 2;
  let load_ratchet path =
    match Klint.Baseline.load path with
    | Ok t -> t
    | Error msg ->
        Fmt.epr "klint: bad ratchet %s: %s@." path msg;
        exit 2
  in
  let ratchet = load_ratchet ratchet_path in
  let head = Option.map load_ratchet ratchet_head in
  let refine_rows =
    match refine_coverage with
    | None -> None
    | Some path -> (
        match Klint.Kverify.load_coverage path with
        | Ok rows -> Some rows
        | Error msg ->
            Fmt.epr "klint: bad refine coverage %s: %s@." path msg;
            exit 2)
  in
  (* The runtime fact sink's export, read once and split per pass. *)
  let runtime =
    match runtime_events with
    | None -> None
    (* no file: no process exported a single fact *)
    | Some path when not (Sys.file_exists path) -> Some []
    | Some path -> (
        match Ksim.Ktrace.read_facts path with
        | Ok facts -> Some facts
        | Error msg ->
            Fmt.epr "klint: bad runtime events %s@." msg;
            exit 2)
  in
  let pick f = Option.map (List.filter_map f) runtime in
  let lock_edges =
    pick (function Ksim.Ktrace.Lock_edge e -> Some (e.held, e.acquired) | _ -> None)
  in
  let heap_events = pick (function Ksim.Ktrace.Heap_event e -> Some e | _ -> None) in
  let order_violations = pick (function Ksim.Ktrace.Order_violation v -> Some v | _ -> None) in
  let live =
    {
      Klint.Baseline.ladder = tree.Klint.Engine.findings;
      tcb_findings = tree.Klint.Engine.ktcb.Klint.Ktcb.findings;
      dur_findings = tree.Klint.Engine.kdur.Klint.Kdur.findings;
      coverage = refine_rows;
    }
  in
  let ratchet =
    if update_ratchet then begin
      let t = Klint.Baseline.tighten ~allow:allow_ratchet_change live ratchet in
      Klint.Baseline.save ratchet_path t;
      Fmt.pr "klint: wrote %s@." ratchet_path;
      t
    end
    else ratchet
  in
  (* R15 (unverified-functional-claim) needs the live registry, so it is
     synthesized here and fed through the same reconciliation as the
     per-file rules.  It is deliberately not baselineable: [findings] is
     written from the tree findings alone, so a Verified claim without a
     harness can never be grandfathered in. *)
  let r15_findings = Klint.Kverify.r15 ~registry tree.Klint.Engine.kverify in
  let all_findings = Klint.Finding.sort (tree.Klint.Engine.findings @ r15_findings) in
  let r =
    Klint.Engine.reconcile ~registry ~baseline:ratchet.Klint.Baseline.findings all_findings
  in
  Klint.Report.write ~path:report_path
    (Klint.Report.to_json ~registry ?refine:refine_rows tree r);
  let attributed = r.Klint.Engine.attributed in
  if verbose then
    List.iter
      (fun (a : Klint.Engine.attributed) ->
        Fmt.pr "%a  [%s@%s%s]@." Klint.Finding.pp a.Klint.Engine.finding a.Klint.Engine.sub
          (Safeos_core.Level.to_string a.Klint.Engine.level)
          (if a.Klint.Engine.baselined then ", baselined" else ""))
      attributed;
  Fmt.pr "klint: %d files, %d effective lines, %d findings (%d baselined), %d violations@."
    (List.length tree.Klint.Engine.files)
    tree.Klint.Engine.effective_loc (List.length attributed)
    (List.length (List.filter (fun a -> a.Klint.Engine.baselined) attributed))
    (List.length r.Klint.Engine.violations);
  Fmt.pr "klint: report written to %s@." report_path;
  let kracer = tree.Klint.Engine.kracer in
  Fmt.pr "klint: lock graph — %d functions, %d static edges, %d guard classes@."
    kracer.Klint.Kracer.funcs
    (List.length kracer.Klint.Kracer.edges)
    (List.length kracer.Klint.Kracer.guards);
  List.iter
    (fun cyc ->
      Fmt.pr "klint: PREDICTED DEADLOCK — static lock-order cycle: %s@."
        (String.concat " -> " (cyc @ [ List.hd cyc ])))
    kracer.Klint.Kracer.cycles;
  (match lock_graph_dot with
  | Some path ->
      let oc = open_out path in
      output_string oc (Klint.Kracer.dot_of_edges kracer.Klint.Kracer.edges);
      close_out oc;
      Fmt.pr "klint: lock graph written to %s@." path
  | None -> ());
  (* A kind of fact the file lacks would pass its reconciliation vacuously. *)
  let vacuity_rc =
    match runtime with
    | None -> 0
    | Some facts -> (
        match Klint.missing_runtime_kinds facts with
        | [] -> 0
        | missing ->
            List.iter
              (Fmt.epr "klint: FAIL — no runtime %s were exported; the capture is broken@.")
              missing;
            1)
  in
  (* Static/runtime reconciliation: every lock nesting the tests saw must
     already be in the static graph, otherwise the analysis has a hole. *)
  let reconcile_rc =
    match lock_edges with
    | None -> 0
    | Some runtime -> (
        let tcb_lock_rc =
          (* Frame-confinement attribution: a runtime lock class the
             static graph has never seen, created by a module the TCB
             metric classifies as frame-free, is a confinement hole, not
             just a kracer gap. *)
          let static_classes =
            List.sort_uniq String.compare
              (List.concat_map (fun (a, b) -> [ a; b ]) kracer.Klint.Kracer.edges
              @ List.map snd kracer.Klint.Kracer.guards)
          in
          match
            Klint.Ktcb.unsound_lock_edges ~result:tree.Klint.Engine.ktcb ~static_classes runtime
          with
          | [] -> 0
          | unsound ->
              List.iter
                (fun (cls, file) ->
                  Fmt.epr
                    "klint: UNSOUND — runtime lock class %s is created in %s, which the TCB \
                     metric classifies as frame-free, and is absent from the static lock \
                     graph@."
                    cls file)
                unsound;
              1
        in
        match Klint.Kracer.missing_runtime_edges ~static:kracer.Klint.Kracer.edges runtime with
        | [] ->
            if tcb_lock_rc = 0 then
              Fmt.pr
                "klint: lockdep reconciliation — %d runtime lock-class edges, all covered \
                 statically and TCB-confined@."
                (List.length (Klint.Kracer.runtime_class_edges runtime));
            tcb_lock_rc
        | missing ->
            List.iter
              (fun (a, b) ->
                Fmt.epr
                  "klint: UNSOUND — runtime lock order %s -> %s is missing from the static graph@."
                  a b)
              missing;
            1)
  in
  (* Same closure for the ownership pass: every heap event the tests
     observed must correspond to a static R8-R11 finding in that file. *)
  let kown = tree.Klint.Engine.kown in
  Fmt.pr "klint: ownership — %d functions, %d consuming, %d returning owned@."
    kown.Klint.Kown.funcs kown.Klint.Kown.consuming kown.Klint.Kown.returning_owned;
  let ktcb = tree.Klint.Engine.ktcb in
  let kmem_rc =
    match heap_events with
    | None -> 0
    | Some events -> (
        let tcb_rc =
          (* The frame-confinement half of the same contract: raw heap
             traffic must originate from the frame or a module the TCB
             metric already prices as unsafe. *)
          match
            Klint.Ktcb.unsound_kmem_events ~files:tree.Klint.Engine.files ~result:ktcb events
          with
          | [] -> 0
          | unsound ->
              List.iter
                (fun ((ev : Ksim.Ktrace.heap_event), file) ->
                  Fmt.epr
                    "klint: UNSOUND — runtime %s event on heap %s (x%d) originates from %s, \
                     which the TCB metric classifies as frame-free@."
                    ev.kind ev.heap ev.count file)
                unsound;
              1
        in
        match
          Klint.Kown.unflagged_kmem_events ~files:tree.Klint.Engine.files
            ~findings:tree.Klint.Engine.findings events
        with
        | [] ->
            if tcb_rc = 0 then
              Fmt.pr
                "klint: kmem reconciliation — %d runtime events, all flagged statically and \
                 TCB-confined@."
                (List.length events);
            tcb_rc
        | missing ->
            List.iter
              (fun ((ev : Ksim.Ktrace.heap_event), file, rule) ->
                Fmt.epr
                  "klint: UNSOUND — runtime %s event on heap %s (x%d) has no static %s finding in %s@."
                  ev.kind ev.heap ev.count (Klint.Finding.rule_id rule) file)
              missing;
            1)
  in
  let reconcile_rc = max reconcile_rc kmem_rc in
  (* Same closure for the durability pass: every barrier-discipline
     violation the Wcache audit observed at runtime must correspond to a
     static R16 finding in the file that built the offending cache. *)
  let kdur = tree.Klint.Engine.kdur in
  Fmt.pr
    "klint: durability — %d functions, %d durable, %d ordering contracts, %d writers, \
     %d barriers@."
    kdur.Klint.Kdur.funcs kdur.Klint.Kdur.durable_funcs kdur.Klint.Kdur.ordering_funcs
    kdur.Klint.Kdur.writing_funcs kdur.Klint.Kdur.flushing_funcs;
  if verbose then
    List.iter
      (fun f -> Fmt.pr "%a  [dur]@." Klint.Finding.pp f)
      kdur.Klint.Kdur.findings;
  let wcache_rc =
    match order_violations with
    | None -> 0
    | Some events -> (
        match
          Klint.Kdur.unflagged_wcache_violations ~files:tree.Klint.Engine.files
            ~findings:kdur.Klint.Kdur.findings events
        with
        | [] ->
            Fmt.pr
              "klint: wcache reconciliation — %d runtime violations, all covered statically@."
              (List.length events);
            0
        | missing ->
            List.iter
              (fun (cache, file, n) ->
                Fmt.epr
                  "klint: UNSOUND — runtime barrier violation on cache %s (x%d) has no static \
                   R16 finding in %s@."
                  cache n file)
              missing;
            1)
  in
  let reconcile_rc = max vacuity_rc (max reconcile_rc wcache_rc) in
  Fmt.pr "klint: tcb — %d/%d unsafe lines (%.1f%%), frame %d files/%d lines, surface %d vals@."
    ktcb.Klint.Ktcb.unsafe_loc ktcb.Klint.Ktcb.total_loc (Klint.Ktcb.ratio ktcb)
    ktcb.Klint.Ktcb.frame_files ktcb.Klint.Ktcb.frame_loc ktcb.Klint.Ktcb.surface_vals;
  let kv = tree.Klint.Engine.kverify in
  Fmt.pr "klint: kverify — %d harness registrations covering %d subsystems%s@."
    (List.length kv.Klint.Kverify.registrations)
    (List.length
       (List.sort_uniq String.compare
          (List.map
             (fun (reg : Klint.Kverify.registration) -> reg.Klint.Kverify.reg_subsystem)
             kv.Klint.Kverify.registrations)))
    (if r15_findings = [] then ""
     else Fmt.str "; %d Verified claim(s) UNCHECKED" (List.length r15_findings));
  (* One ratchet, every section: the live tree against the file, and
     the file against its head copy when CI hands one over. *)
  let verdict = Klint.Baseline.check ?head ~allow:allow_ratchet_change live ratchet in
  List.iter
    (Fmt.pr "klint: ratchet progress — %a; tighten with --update-ratchet@."
       Klint.Baseline.pp_delta)
    verdict.Klint.Baseline.progress;
  List.iter
    (Fmt.pr "klint: ratchet change (allowed) — %a@." Klint.Baseline.pp_delta)
    verdict.Klint.Baseline.allowed;
  List.iter
    (fun (d : Klint.Baseline.delta) ->
      if d.Klint.Baseline.against = Klint.Baseline.Spec then
        Fmt.epr "klint: REFINEMENT DIVERGENCE — %a@." Klint.Baseline.pp_delta d
      else
        Fmt.epr
          "klint: RATCHET REGRESSION — %a (the ratchet only tightens; \
           ALLOW_RATCHET_CHANGE=1 to accept)@."
          Klint.Baseline.pp_delta d)
    verdict.Klint.Baseline.rejected;
  if verdict.Klint.Baseline.rejected = [] && verdict.Klint.Baseline.allowed = [] then
    Fmt.pr "klint: ratchet held against %s%s@." ratchet_path
      (match ratchet_head with Some p -> " and head " ^ p | None -> "");
  let reconcile_rc = max reconcile_rc (if verdict.Klint.Baseline.rejected = [] then 0 else 1) in
  if r.Klint.Engine.violations = [] then reconcile_rc
  else begin
    List.iter
      (fun (a : Klint.Engine.attributed) ->
        Fmt.epr "klint: VIOLATION %a — subsystem %s claims %s@." Klint.Finding.pp
          a.Klint.Engine.finding a.Klint.Engine.sub
          (Safeos_core.Level.to_string a.Klint.Engine.level))
      r.Klint.Engine.violations;
    1
  end

open Cmdliner

let root =
  Arg.(value & opt (some string) None & info [ "root" ] ~docv:"DIR"
         ~doc:"Tree root (default: nearest dune-project above the cwd)")

let ratchet =
  Arg.(value & opt (some string) None & info [ "ratchet" ] ~docv:"FILE"
         ~doc:"Ratchet file (default: ROOT/ratchet.baseline)")

let report =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
         ~doc:"JSON report path (default: ROOT/_build/klint-report.json)")

let update_ratchet =
  Arg.(value & flag & info [ "update-ratchet" ]
         ~doc:"Tighten the ratchet file to the current tree (drop stale findings, lower \
               counts, raise floors to the --refine-coverage figures), then lint against \
               it")

let allow_ratchet_change =
  Arg.(value & flag & info [ "allow-ratchet-change" ]
         ~doc:"Report ratchet regressions without failing, and let --update-ratchet write \
               the current tree exactly, growth included (the ALLOW_RATCHET_CHANGE=1 CI \
               escape)")

let ratchet_head =
  Arg.(value & opt (some string) None & info [ "ratchet-head" ] ~docv:"FILE"
         ~doc:"Also fail when the ratchet file is looser than this committed copy: a \
               findings or count entry above it, or a floor below it")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every finding")

let lock_graph_dot =
  Arg.(value & opt (some string) None & info [ "lock-graph-dot" ] ~docv:"FILE"
         ~doc:"Write the static lock-order graph as Graphviz dot")

let refine_coverage =
  Arg.(value & opt (some string) None & info [ "refine-coverage" ] ~docv:"FILE"
         ~doc:"Ratchet the krefine coverage file written by 'safeos refine --coverage-out' \
               against the ratchet's floors, and embed it in the JSON report; exit 1 on \
               reported divergences or coverage regressions")

let runtime_events =
  Arg.(value & opt (some string) None & info [ "runtime-events" ] ~docv:"FILE"
         ~doc:"Reconcile the static analyses against the runtime facts in FILE, written by \
               Ksim.Ktrace's exit hook (KSIM_TRACE): lock edges against kracer's lock \
               graph, heap events against kown's R8-R11 findings, barrier-order violations \
               against kdur's R16 findings, and all three against the TCB metric's frame \
               confinement; exit 1 if any runtime fact is not covered statically or the \
               file holds no fact of some kind, 2 if FILE is malformed")

let cmd =
  Cmd.v
    (Cmd.info "klint" ~version:"1.0.0"
       ~doc:"Static safety-ladder linter: enforce Registry level claims against the source tree")
    Term.(const run $ root $ ratchet $ report $ update_ratchet $ allow_ratchet_change
          $ ratchet_head $ verbose $ lock_graph_dot $ refine_coverage $ runtime_events)

let () = exit (Cmd.eval' cmd)
