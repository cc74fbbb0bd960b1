(* Per-layer accounting taken from outside the program.

   Every probe is a wrapper the benchmark puts between two layers of a
   stack it builds itself: an [Io.t] wrapper between block layers, an
   [FS_OPS] wrapper around a file system, a [MACHINE] wrapper around a
   refinement harness.  A probed call is a span; spans nest the way the
   calls do, so a layer's self time is its span time minus the time of
   the probed spans opened inside it — its inclusive time minus the
   inclusive time of the layer below.  Nothing inside [lib/] changes. *)

(* Wall time, monotonic, in nanoseconds.  Swappable so tests can drive
   the arithmetic with a scripted clock. *)
let clock = ref (fun () -> Int64.to_int (Monotonic_clock.now ()))
let now_ns () = !clock ()

type layer = {
  name : string;
  mutable calls : int;
  mutable incl_ns : int;
  mutable self_ns : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable flushes : int;
  mutable flush_self_ns : int;
}

let layer name =
  {
    name;
    calls = 0;
    incl_ns = 0;
    self_ns = 0;
    bytes_read = 0;
    bytes_written = 0;
    flushes = 0;
    flush_self_ns = 0;
  }

let reset l =
  l.calls <- 0;
  l.incl_ns <- 0;
  l.self_ns <- 0;
  l.bytes_read <- 0;
  l.bytes_written <- 0;
  l.flushes <- 0;
  l.flush_self_ns <- 0

(* Child time of every open span, innermost first. *)
let open_spans : int ref list ref = ref []

(* Run [f] as one span of [l]; returns its result and the span's self
   time.  An exception closes the span before it propagates. *)
let span_self l f =
  let child = ref 0 in
  open_spans := child :: !open_spans;
  let t0 = now_ns () in
  let close () =
    let dt = now_ns () - t0 in
    (match !open_spans with
    | _ :: (parent :: _ as rest) ->
        parent := !parent + dt;
        open_spans := rest
    | _ :: [] | [] -> open_spans := []);
    let self = dt - !child in
    l.calls <- l.calls + 1;
    l.incl_ns <- l.incl_ns + dt;
    l.self_ns <- l.self_ns + self;
    self
  in
  match f () with
  | r -> (r, close ())
  | exception e ->
      ignore (close () : int);
      raise e

let span l f = fst (span_self l f)

let residual_ns ~wall_ns layers = List.fold_left (fun acc l -> acc - l.self_ns) wall_ns layers

(* Block layers ------------------------------------------------------------ *)

(* [io l base] is [base] seen through layer [l]: identical results, with
   calls, bytes and time charged to [l].  Bytes are counted as issued
   (writes) and as returned (successful reads). *)
let io l (base : Kblock.Io.t) : Kblock.Io.t =
  let write_via w blkno data =
    l.bytes_written <- l.bytes_written + Bytes.length data;
    span l (fun () -> w blkno data)
  in
  {
    base with
    read =
      (fun blkno ->
        let r = span l (fun () -> base.read blkno) in
        (match r with Ok b -> l.bytes_read <- l.bytes_read + Bytes.length b | Error _ -> ());
        r);
    write = write_via base.write;
    flush =
      (fun () ->
        let r, self = span_self l base.flush in
        l.flushes <- l.flushes + 1;
        l.flush_self_ns <- l.flush_self_ns + self;
        r);
    write_fua = Option.map write_via base.write_fua;
  }

(* File systems ------------------------------------------------------------- *)

let fs_ops (type f) l (module F : Kvfs.Iface.FS_OPS with type fs = f) :
    (module Kvfs.Iface.FS_OPS with type fs = f) =
  (module struct
    include F

    let apply fs op = span l (fun () -> F.apply fs op)
  end)

(* Refinement machines -------------------------------------------------------- *)

type phases = { step : layer; interp : layer; inv : layer; crash_images : layer }

let phases () =
  {
    step = layer "krefine.step";
    interp = layer "krefine.interp";
    inv = layer "krefine.inv";
    crash_images = layer "krefine.crash_images";
  }

let phase_list p = [ p.step; p.interp; p.inv; p.crash_images ]

module Machine (P : sig
  val phases : phases
end)
(M : Kspec.Krefine.MACHINE) : Kspec.Krefine.MACHINE with type vars = M.vars = struct
  type vars = M.vars

  let name = M.name
  let init = M.init
  let step v op = span P.phases.step (fun () -> M.step v op)
  let interp v = span P.phases.interp (fun () -> M.interp v)
  let inv v = span P.phases.inv (fun () -> M.inv v)
  let crash_images v ~limit = span P.phases.crash_images (fun () -> M.crash_images v ~limit)
end

let machine (type a) phases (module M : Kspec.Krefine.MACHINE with type vars = a) :
    (module Kspec.Krefine.MACHINE with type vars = a) =
  (module Machine (struct
    let phases = phases
  end)
  (M))
