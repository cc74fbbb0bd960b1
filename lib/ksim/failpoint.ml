(* Deterministic named failpoints, modeled on Linux fault injection
   (CONFIG_FAULT_INJECTION's fault_attr: probability, interval, times).

   A registry holds named sites; call sites ask [should_fail] at the point
   where a fault could strike and get a replayable answer: every site
   draws from its own SplitMix64 stream derived from (registry seed, site
   name), so a given seed always produces the identical fault schedule,
   independent of registration order.  Injections are announced on the
   registry's [Ktrace] (category ["failpoint"]) and per-site hit/injected
   counters can be published into a [Kstats] table. *)

type site = {
  name : string;
  mutable enabled : bool;
  mutable probability : float; (* chance an eligible hit injects, [0,1] *)
  mutable interval : int; (* only every [interval]-th hit is eligible *)
  mutable times : int; (* remaining injections; -1 = unlimited *)
  mutable hits : int;
  mutable injected : int;
  rng : Rng.t;
}

type t = {
  seed : int;
  sites : (string, site) Hashtbl.t;
  trace : Ktrace.t;
}

(* Stable per-site stream: seed folded with the site name so two
   registries with the same seed agree site by site. *)
let site_seed seed name =
  let h = ref (Int64.of_int seed) in
  String.iter
    (fun c -> h := Int64.add (Int64.mul !h 1099511628211L) (Int64.of_int (Char.code c)))
    name;
  !h

let create ?(trace = Ktrace.global) ~seed () =
  { seed; sites = Hashtbl.create 16; trace }

let seed t = t.seed

let register t name =
  match Hashtbl.find_opt t.sites name with
  | Some s -> s
  | None ->
      let s =
        {
          name;
          enabled = false;
          probability = 1.0;
          interval = 1;
          times = -1;
          hits = 0;
          injected = 0;
          rng = Rng.create (site_seed t.seed name);
        }
      in
      Hashtbl.replace t.sites name s;
      s

let configure t name ?enabled ?probability ?interval ?times () =
  let s = register t name in
  Option.iter (fun v -> s.enabled <- v) enabled;
  Option.iter
    (fun v ->
      if v < 0.0 || v > 1.0 then invalid_arg "Failpoint.configure: probability";
      s.probability <- v)
    probability;
  Option.iter
    (fun v ->
      if v < 1 then invalid_arg "Failpoint.configure: interval";
      s.interval <- v)
    interval;
  Option.iter (fun v -> s.times <- v) times

let disable_all t =
  Hashtbl.iter (fun _ s -> s.enabled <- false) t.sites

let fire t s =
  s.hits <- s.hits + 1;
  if (not s.enabled) || s.times = 0 then false
  else if s.interval > 1 && s.hits mod s.interval <> 0 then false
  else if s.probability < 1.0 && Rng.float s.rng >= s.probability then false
  else begin
    s.injected <- s.injected + 1;
    if s.times > 0 then s.times <- s.times - 1;
    Ktrace.emitf t.trace ~category:"failpoint" "%s: injected (hit %d, injection %d)" s.name
      s.hits s.injected;
    true
  end

let should_fail t name = fire t (register t name)

let hits t name = (register t name).hits
let injected t name = (register t name).injected

let sites t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.sites []
  |> List.sort (fun a b -> String.compare a.name b.name)

let total_injected t = List.fold_left (fun acc s -> acc + s.injected) 0 (sites t)

let reset_counters t =
  Hashtbl.iter
    (fun _ s ->
      s.hits <- 0;
      s.injected <- 0)
    t.sites

let publish t stats =
  List.iter
    (fun s ->
      Kstats.incr ~by:s.hits stats (s.name ^ ".hits");
      Kstats.incr ~by:s.injected stats (s.name ^ ".injected"))
    (sites t)

(* The fault schedule as observed so far: one entry per injection, in
   order, taken from the registry trace.  Two runs from the same seed that
   execute the same I/O sequence produce the identical schedule. *)
let schedule t =
  List.filter_map
    (fun (e : Ktrace.event) ->
      if String.equal e.category "failpoint" then Some e.message else None)
    (Ktrace.events t.trace)

let pp_site ppf s =
  Fmt.pf ppf "%-28s %s p=%.2f interval=%d times=%d hits=%d injected=%d" s.name
    (if s.enabled then "on " else "off")
    s.probability s.interval s.times s.hits s.injected
