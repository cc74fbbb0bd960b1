(* Simulated manual kernel allocator.

   Objects live in a heap that tracks their lifecycle so that the classic C
   memory bugs — use-after-free, double-free, leaks — are observable events
   rather than silent corruption.  Unsafe modules (roadmap step 0/1) manage
   object lifetimes through this allocator; ownership-safe modules (step 3)
   route the same allocations through capability checks in [Ownership]. *)

exception Use_after_free of { site : string; id : int }
exception Double_free of { site : string; id : int }

type 'a state =
  | Live of 'a
  | Freed

type 'a ptr = {
  id : int;
  site : string;
  mutable state : 'a state;
  heap : t;
}

and t = {
  mutable next_id : int;
  mutable allocated : int;
  mutable freed : int;
  mutable uaf_events : int;
  mutable double_free_events : int;
  live : (int, string) Hashtbl.t; (* id -> allocation site, for leak reports *)
  events : events;
  strict : bool; (* raise on violation instead of just counting *)
}

(* Aggregated events, apart from the heap so the sink never holds one. *)
and events = {
  heap_name : string;
  counts : (string * string, int) Hashtbl.t; (* (kind, allocation site) -> count *)
  mutable reported_leaks : (string * int) list; (* last [leaks] snapshot, per site *)
  mutable in_sink : bool;
}

(* The events of every heap that has seen one, newest first: what the
   [KSIM_KMEM_EXPORT] hook writes.  A heap joins at its first event. *)
let sink : events list ref = ref []

let create ?(strict = true) ~name () =
  {
    next_id = 0;
    allocated = 0;
    freed = 0;
    uaf_events = 0;
    double_free_events = 0;
    live = Hashtbl.create 64;
    events =
      {
        heap_name = name;
        counts = Hashtbl.create 8;
        reported_leaks = [];
        in_sink = false;
      };
    strict;
  }

let to_sink ev =
  if not ev.in_sink then begin
    ev.in_sink <- true;
    sink := ev :: !sink
  end

let bump heap kind site =
  let c = heap.events.counts in
  Hashtbl.replace c (kind, site) (1 + Option.value ~default:0 (Hashtbl.find_opt c (kind, site)));
  to_sink heap.events

let alloc heap ~site value =
  heap.next_id <- heap.next_id + 1;
  heap.allocated <- heap.allocated + 1;
  let id = heap.next_id in
  Hashtbl.replace heap.live id site;
  { id; site; state = Live value; heap }

let use_after_free ptr =
  ptr.heap.uaf_events <- ptr.heap.uaf_events + 1;
  bump ptr.heap "uaf" ptr.site;
  if ptr.heap.strict then raise (Use_after_free { site = ptr.site; id = ptr.id })

let read ptr =
  match ptr.state with
  | Live v -> v
  | Freed ->
      use_after_free ptr;
      (* Non-strict mode models "reading freed memory returns garbage" by
         failing anyway: there is no garbage value of type ['a] to hand
         back, so even a lenient heap cannot continue past a read. *)
      raise (Use_after_free { site = ptr.site; id = ptr.id })

let write ptr value =
  match ptr.state with
  | Live _ -> ptr.state <- Live value
  | Freed -> use_after_free ptr

let free ptr =
  match ptr.state with
  | Live _ ->
      ptr.state <- Freed;
      ptr.heap.freed <- ptr.heap.freed + 1;
      Hashtbl.remove ptr.heap.live ptr.id
  | Freed ->
      ptr.heap.double_free_events <- ptr.heap.double_free_events + 1;
      bump ptr.heap "double_free" ptr.site;
      if ptr.heap.strict then raise (Double_free { site = ptr.site; id = ptr.id })

let is_live ptr = match ptr.state with Live _ -> true | Freed -> false
let live_count heap = Hashtbl.length heap.live
let allocated heap = heap.allocated
let freed heap = heap.freed
let uaf_events heap = heap.uaf_events
let double_free_events heap = heap.double_free_events

type leak = { leak_id : int; leak_site : string }

(* Per-site aggregation of still-live objects — the granularity the
   static/runtime reconciliation keys on (kown findings are per-file,
   runtime events per allocation site). *)
let site_counts l =
  List.fold_left
    (fun acc { leak_site; _ } ->
      (leak_site, 1 + Option.value ~default:0 (List.assoc_opt leak_site acc))
      :: List.remove_assoc leak_site acc)
    [] l
  |> List.sort compare

let leaks heap =
  let l =
    Hashtbl.fold (fun leak_id leak_site acc -> { leak_id; leak_site } :: acc) heap.live []
    |> List.sort (fun a b -> compare a.leak_id b.leak_id)
  in
  (* A leak only exists once somebody asked at a quiescence point —
     live objects at process exit are normal — so the export snapshot
     records what the last report actually said. *)
  heap.events.reported_leaks <- site_counts l;
  if l <> [] then to_sink heap.events;
  l

let pp_report ppf heap =
  Fmt.pf ppf "heap %s: allocated=%d freed=%d live=%d uaf=%d double_free=%d" heap.events.heap_name
    heap.allocated heap.freed (live_count heap) heap.uaf_events heap.double_free_events

(* Runtime event export ---------------------------------------------------- *)

let exported_events () =
  List.concat_map
    (fun ev ->
      let row kind (site, n) = (kind, ev.heap_name, site, n) in
      List.sort compare (Hashtbl.fold (fun (k, s) n acc -> row k (s, n) :: acc) ev.counts [])
      @ List.map (row "leak") ev.reported_leaks)
    (List.rev !sink)

let export_env = "KSIM_KMEM_EXPORT"

(* When [KSIM_KMEM_EXPORT] names a file, every process appends the sink
   there on exit, one "kind\theap\tsite\tcount" line per row (the wire
   format klint's kown reconciliation, [--kmem-events], consumes):
   `scripts/ci.sh` sets it across `dune runtest` so kown can check its
   static R8-R11 findings against every heap event the suite observed. *)
let () =
  match Sys.getenv_opt export_env with
  | Some path when path <> "" ->
      at_exit (fun () ->
          match exported_events () with
          | [] -> ()
          | rows -> (
              try
                let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
                List.iter (fun (k, h, s, n) -> Printf.fprintf oc "%s\t%s\t%s\t%d\n" k h s n) rows;
                close_out oc
              with Sys_error _ -> ()))
  | Some _ | None -> ()
