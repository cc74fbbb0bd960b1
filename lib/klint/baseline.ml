(* The ratchet: ratchet.baseline, everything the tree may not slip back
   below, in one file with four sections.

     [findings]       grandfathered ladder findings, line-anchored, sorted
                      by file/line/rule:   R1 lib/knet/sock.ml:121 type-confusion
     [tcb]            R12-R14 counts per (rule, file):   R12 lib/knet/amp.ml 6
     [dur]            R16-R18 counts per (rule, file):   R16 lib/kblock/journal.ml 1
     [refine-floors]  krefine coverage minimums:         ops 36246

   [findings] feeds {!Engine.reconcile}: a finding matching an entry is
   tolerated, a new one is not (when the claiming subsystem's level
   forbids its bug class), and entries that stop matching are ratchet
   progress.  The count sections carry no line numbers, so moving code
   around a specimen file can neither fake progress nor regression.
   Counts may only fall and floors may only rise; {!check} judges every
   section against the live tree and, given one, a head copy of the
   file, and {!tighten} is the only writer. *)

(* [findings] entries ---------------------------------------------------- *)

type entry = {
  rule : Finding.rule;
  file : string;
  line : int;
}

let entry_of_finding (f : Finding.t) =
  { rule = f.Finding.rule; file = f.Finding.file; line = f.Finding.line }

let compare_entry a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Stdlib.compare a.line b.line with
      | 0 -> String.compare (Finding.rule_id a.rule) (Finding.rule_id b.rule)
      | c -> c)
  | c -> c

let of_findings findings =
  List.sort_uniq compare_entry (List.map entry_of_finding findings)

let entry_to_line e =
  Fmt.str "%s %s:%d %s" (Finding.rule_id e.rule) e.file e.line
    (Safeos_core.Level.bug_class_to_string (Finding.bug_class e.rule))

let parse_entry line =
  match String.split_on_char ' ' line with
  | rule_id :: loc :: _ -> (
      match (Finding.rule_of_id rule_id, String.rindex_opt loc ':') with
      | Some rule, Some i -> (
          let file = String.sub loc 0 i in
          match int_of_string_opt (String.sub loc (i + 1) (String.length loc - i - 1)) with
          | Some line -> Ok { rule; file; line }
          | None -> Error (Fmt.str "bad line number in %S" loc))
      | None, _ -> Error (Fmt.str "unknown rule id %S" rule_id)
      | _, None -> Error (Fmt.str "missing :line in %S" loc))
  | _ -> Error (Fmt.str "malformed entry %S" line)

let mem entries (f : Finding.t) =
  let e = entry_of_finding f in
  List.exists (fun e' -> compare_entry e e' = 0) entries

(* (still matched by a finding, stale): stale entries are ratchet progress *)
let partition_live entries findings =
  let live = of_findings findings in
  List.partition (fun e -> List.exists (fun l -> compare_entry e l = 0) live) entries

let stale entries findings = snd (partition_live entries findings)

(* [tcb] and [dur] counts ------------------------------------------------ *)

module Counts = struct
  type entry = {
    b_rule : Finding.rule;
    b_file : string;
    b_count : int;
  }

  let compare_entry a b =
    match String.compare a.b_file b.b_file with
    | 0 -> String.compare (Finding.rule_id a.b_rule) (Finding.rule_id b.b_rule)
    | c -> c

  let of_findings findings =
    List.fold_left
      (fun acc (f : Finding.t) ->
        let k = (f.Finding.rule, f.Finding.file) in
        let n = try List.assoc k acc with Not_found -> 0 in
        (k, n + 1) :: List.remove_assoc k acc)
      [] findings
    |> List.map (fun ((rule, file), count) ->
           { b_rule = rule; b_file = file; b_count = count })
    |> List.sort compare_entry

  let entry_to_line e =
    Fmt.str "%s %s %d" (Finding.rule_id e.b_rule) e.b_file e.b_count

  let parse_entry line =
    match String.split_on_char ' ' line with
    | [ rule_id; file; count ] -> (
        match (Finding.rule_of_id rule_id, int_of_string_opt count) with
        | Some rule, Some count when count >= 0 ->
            Ok { b_rule = rule; b_file = file; b_count = count }
        | None, _ -> Error (Fmt.str "unknown rule id %S" rule_id)
        | _, _ -> Error (Fmt.str "bad count in %S" line))
    | _ -> Error (Fmt.str "malformed entry %S" line)

  let find entries rule file =
    match
      List.find_opt (fun e -> e.b_rule = rule && String.equal e.b_file file) entries
    with
    | Some e -> e.b_count
    | None -> 0
end

(* The line-anchored [findings] aggregated per (rule, file): renumbering
   from unrelated edits in the same file is not growth, one more entry
   in a file is. *)
let counts entries =
  Counts.of_findings
    (List.map
       (fun e ->
         { Finding.rule = e.rule; file = e.file; line = e.line; col = 0; func = "";
           message = "" })
       entries)

(* [refine-floors] ------------------------------------------------------- *)

(* The krefine coverage aggregates as (key, value), in the order [floor_of_rows] gives. *)
type floor = (string * int) list

let floor_of_rows (rows : Kverify.coverage_row list) : floor =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  [
    ("harnesses", List.length rows);
    ("ops", sum (fun r -> r.Kverify.cov_ops));
    ("states", sum (fun r -> r.Kverify.cov_states));
    ("crash_images", sum (fun r -> r.Kverify.cov_crash_images));
  ]

let floor_keys = List.map fst (floor_of_rows [])

(* The file ------------------------------------------------------------- *)

type t = {
  findings : entry list;
  tcb : Counts.entry list;
  dur : Counts.entry list;
  floors : floor;
}

let header =
  "# ratchet.baseline: what the tree may not slip back below.  Counts only\n\
   # fall and floors only rise.  Tighten after genuine fixes with\n\
   #   dune exec bin/klint/main.exe -- --update-ratchet\n\
   # Deliberate growth needs --allow-ratchet-change (ALLOW_RATCHET_CHANGE=1 in CI).\n"

let to_string t =
  let section name comment lines =
    Fmt.str "\n[%s]\n# %s\n%s" name comment
      (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  in
  String.concat ""
    [
      header;
      section "findings" "grandfathered ladder findings, sorted by file/line/rule"
        (List.map entry_to_line t.findings);
      section "tcb" "R12-R14 counts per (rule, file): the unsafe TCB only shrinks"
        (List.map Counts.entry_to_line t.tcb);
      section "dur" "R16-R18 counts per (rule, file): the declared durability exhibits"
        (List.map Counts.entry_to_line t.dur);
      section "refine-floors" "krefine coverage minimums the refine stage must reach"
        (List.map (fun (k, v) -> Fmt.str "%s %d" k v) t.floors);
    ]

type section = Findings | Tcb | Dur | Floors

let section_name = function
  | Findings -> "findings"
  | Tcb -> "tcb"
  | Dur -> "dur"
  | Floors -> "refine-floors"

let sections = List.map section_name [ Findings; Tcb; Dur; Floors ]

exception Malformed of string

let parse_floor line =
  match String.split_on_char ' ' line with
  | [ k; v ] when List.mem k floor_keys -> (
      match int_of_string_opt v with
      | Some v when v >= 0 -> Ok (k, v)
      | _ -> Error (Fmt.str "bad value for %s" k))
  | k :: _ -> Error (Fmt.str "unknown floor key %S" k)
  | [] -> Error "empty entry"

(* Every malformation is an error naming the line and, once one has
   begun, the section: an unknown or repeated section, an entry before
   any section, a bad entry, a floor key given twice — or, naming just
   the section, one missing or a floor key missing from it. *)
let of_string s =
  let fail ?section lineno fmt =
    Fmt.kstr
      (fun msg ->
        raise
          (Malformed
             (match section with
             | Some name -> Fmt.str "line %d [%s]: %s" lineno name msg
             | None -> Fmt.str "line %d: %s" lineno msg)))
      fmt
  in
  let lines = Hashtbl.create 4 (* section -> (lineno, entry) list, reversed *) in
  let current = ref None in
  let scan lineno raw =
    let line = String.trim raw in
    let n = String.length line in
    if n = 0 || line.[0] = '#' then ()
    else if line.[0] = '[' && line.[n - 1] = ']' then begin
      let name = String.sub line 1 (n - 2) in
      if not (List.mem name sections) then fail lineno "unknown section [%s]" name;
      if Hashtbl.mem lines name then fail lineno "duplicate section [%s]" name;
      Hashtbl.replace lines name [];
      current := Some name
    end
    else
      match !current with
      | None -> fail lineno "entry before any section: %S" line
      | Some name -> Hashtbl.replace lines name ((lineno, line) :: Hashtbl.find lines name)
  in
  let entries section parse =
    match Hashtbl.find_opt lines section with
    | None -> raise (Malformed (Fmt.str "missing section [%s]" section))
    | Some rev ->
        List.rev_map
          (fun (lineno, line) ->
            match parse line with
            | Ok e -> (lineno, e)
            | Error msg -> fail ~section lineno "%s" msg)
          rev
  in
  match
    List.iteri (fun i raw -> scan (i + 1) raw) (String.split_on_char '\n' s);
    let findings = entries "findings" parse_entry in
    let tcb = entries "tcb" Counts.parse_entry in
    let dur = entries "dur" Counts.parse_entry in
    let floors = entries "refine-floors" parse_floor in
    let floor k =
      match List.filter (fun (_, (k', _)) -> String.equal k k') floors with
      | [ (_, kv) ] -> kv
      | [] -> raise (Malformed (Fmt.str "missing floor key %s in [refine-floors]" k))
      | _ :: (lineno, _) :: _ -> fail ~section:"refine-floors" lineno "repeated floor key %s" k
    in
    {
      findings = List.sort_uniq compare_entry (List.map snd findings);
      tcb = List.sort Counts.compare_entry (List.map snd tcb);
      dur = List.sort Counts.compare_entry (List.map snd dur);
      floors = List.map floor floor_keys;
    }
  with
  | t -> Ok t
  | exception Malformed msg -> Error msg

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let save path t =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc (to_string t))

(* Judging --------------------------------------------------------------- *)

(* What the tree has now, in the terms of each section.  [coverage] is
   the krefine coverage file, when one was produced this run. *)
type live = {
  ladder : Finding.t list;  (** line-anchored findings, R15 excluded *)
  tcb_findings : Finding.t list;
  dur_findings : Finding.t list;
  coverage : Kverify.coverage_row list option;
}

(* What a delta was judged against: the ratchet file, the head copy of
   it, or the spec itself (a refinement divergence, which no escape
   forgives — it is a failed check, not a ratchet movement). *)
type against = Ratchet | Head | Spec

type delta = {
  section : section;
  key : string;  (** "R12 lib/knet/amp.ml", a floor name, or a harness *)
  have : int;
  bound : int;
  against : against;
}

let pp_delta ppf d =
  Fmt.pf ppf "[%s] %s: %d %s %s %d" (section_name d.section) d.key d.have
    (if d.have > d.bound then ">" else "<")
    (match d.against with Ratchet -> "ratchet" | Head -> "head" | Spec -> "spec")
    d.bound

(* Every section as (key, value) pairs: a [findings] entry counts 1
   under its line-anchored key, a count or floor its value. *)
let entry_dims entries =
  List.map (fun e -> (Fmt.str "%s %s:%d" (Finding.rule_id e.rule) e.file e.line, 1)) entries

let count_dims entries =
  List.map
    (fun e ->
      (Fmt.str "%s %s" (Finding.rule_id e.Counts.b_rule) e.Counts.b_file, e.Counts.b_count))
    entries

(* (regressions, progress) of [current] against [bound], a ceiling for
   the findings and count sections and a floor for [refine-floors]; an
   absent key is 0. *)
let judge section against ~bound current =
  let get kvs k = Option.value ~default:0 (List.assoc_opt k kvs) in
  List.map fst bound @ List.filter (fun k -> not (List.mem_assoc k bound)) (List.map fst current)
  |> List.filter_map (fun key ->
         let have = get current key and b = get bound key in
         if have = b then None else Some { section; key; have; bound = b; against })
  |> List.partition (fun d -> (d.have > d.bound) = (section <> Floors))

type verdict = {
  rejected : delta list;  (** fail the run *)
  allowed : delta list;  (** regressions accepted by [~allow] *)
  progress : delta list;  (** the tree is ahead of the file: tighten it *)
}

let check ?head ~allow live t =
  let tcb_r, tcb_p =
    judge Tcb Ratchet ~bound:(count_dims t.tcb)
      (count_dims (Counts.of_findings live.tcb_findings))
  in
  let dur_r, dur_p =
    judge Dur Ratchet ~bound:(count_dims t.dur)
      (count_dims (Counts.of_findings live.dur_findings))
  in
  let floor_r, floor_p =
    match live.coverage with
    | None -> ([], [])
    | Some rows -> judge Floors Ratchet ~bound:t.floors (floor_of_rows rows)
  in
  (* line-anchored findings are judged by the ladder reconciliation;
     here only their staleness counts *)
  let _, stale =
    judge Findings Ratchet ~bound:(entry_dims t.findings)
      (entry_dims (of_findings live.ladder))
  in
  let head_r =
    match head with
    | None -> []
    | Some h ->
        fst
          (judge Findings Head ~bound:(count_dims (counts h.findings))
             (count_dims (counts t.findings)))
        @ fst (judge Tcb Head ~bound:(count_dims h.tcb) (count_dims t.tcb))
        @ fst (judge Dur Head ~bound:(count_dims h.dur) (count_dims t.dur))
        @ fst (judge Floors Head ~bound:h.floors t.floors)
  in
  let diverged =
    List.filter_map
      (fun (r : Kverify.coverage_row) ->
        if r.Kverify.cov_divergences = 0 then None
        else
          Some
            {
              section = Floors;
              key =
                Fmt.str "harness %s divergences (deepest at step %d)" r.Kverify.cov_harness
                  r.Kverify.cov_deepest;
              have = r.Kverify.cov_divergences;
              bound = 0;
              against = Spec;
            })
      (Option.value ~default:[] live.coverage)
  in
  let regressions = tcb_r @ dur_r @ floor_r @ head_r in
  {
    rejected = diverged @ (if allow then [] else regressions);
    allowed = (if allow then regressions else []);
    progress = stale @ tcb_p @ dur_p @ floor_p;
  }

(* The file --update-ratchet writes: stale [findings] entries dropped,
   counts lowered to the live ones, floors raised to the live coverage
   (carried over when there is none).  With [~allow] it is the live tree
   exactly, growth included. *)
let tighten ~allow live t =
  let counts bound findings =
    let current = Counts.of_findings findings in
    if allow then current
    else
      List.filter_map
        (fun (e : Counts.entry) ->
          match min e.Counts.b_count (Counts.find current e.Counts.b_rule e.Counts.b_file) with
          | 0 -> None
          | n -> Some { e with Counts.b_count = n })
        bound
  in
  {
    findings =
      (if allow then of_findings live.ladder
       else fst (partition_live t.findings live.ladder));
    tcb = counts t.tcb live.tcb_findings;
    dur = counts t.dur live.dur_findings;
    floors =
      (match live.coverage with
      | None -> t.floors
      | Some rows ->
          let current = floor_of_rows rows in
          if allow then current
          else List.map2 (fun (k, floor) (_, have) -> (k, max floor have)) t.floors current);
  }
