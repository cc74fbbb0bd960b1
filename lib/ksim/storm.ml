(* Storm composition over a Failpoint registry.

   The storm is pure bookkeeping: all randomness stays inside the
   registry's per-site seeded streams, so a storm adds no
   nondeterminism — it only decides *when* each site is armed and with
   what composed knobs.  [tick] re-applies a site's configuration only
   when its set of covering bursts changes (a "window boundary"); in
   between, the site's live [times] countdown drains undisturbed.  The
   covering sets only change at a burst start or stop, so [tick] caches
   the window between the nearest boundaries around the last applied
   tick and returns at once while [now] stays inside it. *)

type burst = {
  site : string;
  start : int;
  stop : int;
  probability : float;
  times : int;
}

type t = {
  fp : Failpoint.t;
  mutable bursts : burst list;
  (* Each managed site, in site order, with its bursts and their indices
     into [bursts]. *)
  mutable sites : (string * (int * burst) list) list;
  (* Every burst start and stop, sorted and deduplicated. *)
  mutable bounds : int array;
  (* site -> indices (into [bursts]) of the window last applied; [] for
     "disabled by us".  Absent = never touched. *)
  applied : (string, int list) Hashtbl.t;
  (* [lo, hi): the window of the last applied tick.  No boundary lies
     strictly inside it, so every covering set is constant on it.  Empty
     ([lo > hi]) until a tick applies one. *)
  mutable lo : int;
  mutable hi : int;
}

let invalidate t =
  t.lo <- 1;
  t.hi <- 0

let create ~fp () =
  { fp; bursts = []; sites = []; bounds = [||]; applied = Hashtbl.create 8; lo = 1; hi = 0 }

let add t schedule =
  List.iter
    (fun b ->
      if b.stop <= b.start then invalid_arg "Storm.add: empty window";
      if b.probability < 0.0 || b.probability > 1.0 then invalid_arg "Storm.add: probability")
    schedule;
  t.bursts <-
    List.stable_sort
      (fun a b ->
        match String.compare a.site b.site with
        | 0 -> ( match compare a.start b.start with 0 -> compare a.stop b.stop | c -> c)
        | c -> c)
      (t.bursts @ schedule);
  let indexed = List.mapi (fun i b -> (i, b)) t.bursts in
  t.sites <-
    List.map
      (fun site -> (site, List.filter (fun (_, b) -> String.equal b.site site) indexed))
      (List.sort_uniq String.compare (List.map (fun b -> b.site) t.bursts));
  t.bounds <-
    Array.of_list (List.sort_uniq compare (List.concat_map (fun b -> [ b.start; b.stop ]) t.bursts));
  invalidate t

let bursts t = t.bursts

let covering bursts now = List.filter (fun (_, b) -> b.start <= now && now < b.stop) bursts

(* Composed knobs for a covering set: independent fault sources, so
   probabilities combine as 1 - prod(1-p); finite budgets sum, an
   unlimited burst makes the window unlimited. *)
let compose cover =
  let prob = 1.0 -. List.fold_left (fun acc (_, b) -> acc *. (1.0 -. b.probability)) 1.0 cover in
  let times =
    if List.exists (fun (_, b) -> b.times < 0) cover then -1
    else List.fold_left (fun acc (_, b) -> acc + b.times) 0 cover
  in
  (prob, times)

let apply t now =
  List.iter
    (fun (site, bursts) ->
      let cover = covering bursts now in
      let signature = List.map fst cover in
      let last = Hashtbl.find_opt t.applied site in
      if last <> Some signature then begin
        Hashtbl.replace t.applied site signature;
        match cover with
        | [] -> Failpoint.configure t.fp site ~enabled:false ()
        | _ ->
            let probability, times = compose cover in
            Failpoint.configure t.fp site ~enabled:true ~probability ~times ()
      end)
    t.sites

let tick t now =
  if not (t.lo <= now && now < t.hi) then begin
    apply t now;
    let lo = ref min_int and hi = ref max_int in
    Array.iter
      (fun b -> if b <= now then (if b > !lo then lo := b) else if b < !hi then hi := b)
      t.bounds;
    t.lo <- !lo;
    t.hi <- !hi
  end

let disable t =
  List.iter (fun (site, _) -> Failpoint.configure t.fp site ~enabled:false ()) t.sites;
  Hashtbl.reset t.applied;
  invalidate t

let active t now =
  List.filter_map
    (fun (site, bursts) ->
      match covering bursts now with
      | [] -> None
      | cover ->
          let probability, times = compose cover in
          Some (site, probability, times))
    t.sites
