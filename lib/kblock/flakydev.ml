(* A dm-flakey-style fault-injecting block layer.

   Wraps any [Io.t] and misbehaves on command, driven by three failpoints
   in a [Ksim.Failpoint] registry (so every fault schedule is replayable
   from the registry seed):

     <name>.read-eio    transient EIO on read, nothing touched
     <name>.write-eio   transient EIO on write, the write is dropped
     <name>.torn-write  a *prefix* of the new data lands over the old
                        block content, then EIO — the torn write the
                        journal's checksums must catch

   Multi-block logical writes (a journal transaction, a checkpoint batch)
   tear between blocks whenever one constituent write draws write-eio
   mid-sequence; torn-write adds the nastier intra-block case.

   Orthogonally, dm-flakey's availability windows: after
   [set_availability ~up ~down], the device repeats [up] I/O ops working,
   then [down] ops failing everything (including flush), counted on a
   per-op tick. *)

type t = {
  base : Io.t;
  fp : Ksim.Failpoint.t;
  read_eio : Ksim.Failpoint.site; (* kept from [register]: no lookup per I/O *)
  write_eio : Ksim.Failpoint.site;
  torn_write : Ksim.Failpoint.site;
  rng : Ksim.Rng.t; (* tear offsets; seeded from the registry for replay *)
  mutable up_interval : int; (* 0 = always up *)
  mutable down_interval : int;
  mutable tick : int;
  mutable read_errors : int;
  mutable write_errors : int;
  mutable torn_writes : int;
  mutable torn_skipped : int; (* torn attempts where the base write itself failed *)
  mutable down_rejections : int;
}

let create ?(name = "flaky") ~fp base =
  let site kind = Ksim.Failpoint.register fp (name ^ "." ^ kind) in
  let read_eio = site "read-eio" in
  let write_eio = site "write-eio" in
  let torn_write = site "torn-write" in
  {
    base;
    fp;
    read_eio;
    write_eio;
    torn_write;
    rng = Ksim.Rng.of_int (Ksim.Failpoint.seed fp + Hashtbl.hash name);
    up_interval = 0;
    down_interval = 0;
    tick = 0;
    read_errors = 0;
    write_errors = 0;
    torn_writes = 0;
    torn_skipped = 0;
    down_rejections = 0;
  }

let set_availability t ~up ~down =
  if up < 1 && down > 0 then invalid_arg "Flakydev.set_availability";
  t.up_interval <- up;
  t.down_interval <- down

let is_down t =
  t.down_interval > 0 && t.tick mod (t.up_interval + t.down_interval) >= t.up_interval

let reject_down t =
  t.down_rejections <- t.down_rejections + 1;
  Error Ksim.Errno.EIO

(* Consume one availability tick: the op at hand runs under the window the
   pre-increment tick selects, so the first [up] ops are always up. *)
let tick_down t =
  let down = is_down t in
  t.tick <- t.tick + 1;
  down

let read t blkno =
  if tick_down t then reject_down t
  else if Ksim.Failpoint.fire t.fp t.read_eio then begin
    t.read_errors <- t.read_errors + 1;
    Error Ksim.Errno.EIO
  end
  else t.base.Io.read blkno

(* [landing] is where a fault-free write goes: the base's plain write for
   [write], the base's FUA path for [write_fua].  The torn-prefix branch
   always lands through the plain write — a torn block is by definition
   not durably on media. *)
let write_gen t ~landing blkno data =
  if tick_down t then reject_down t
  else if Ksim.Failpoint.fire t.fp t.write_eio then begin
    t.write_errors <- t.write_errors + 1;
    Error Ksim.Errno.EIO
  end
  else if
    Bytes.length data = t.base.Io.block_size
    && Ksim.Failpoint.fire t.fp t.torn_write
  then begin
    (* Tear inside the block: a prefix of the new data over the old
       content reaches the device, and the caller sees EIO.  If the base
       device refuses the torn write (e.g. a nested down-window), nothing
       landed: that is not a torn write, count it separately. *)
    let old =
      match t.base.Io.read blkno with
      | Ok b -> b
      | Error _ -> Bytes.make t.base.Io.block_size '\000'
    in
    let tear = 1 + Ksim.Rng.int t.rng (t.base.Io.block_size - 1) in
    let torn = Bytes.copy old in
    Bytes.blit data 0 torn 0 tear;
    (match t.base.Io.write blkno torn with
    | Ok () -> t.torn_writes <- t.torn_writes + 1
    | Error _ -> t.torn_skipped <- t.torn_skipped + 1);
    Error Ksim.Errno.EIO
  end
  else landing blkno data

let write t blkno data = write_gen t ~landing:t.base.Io.write blkno data
let write_fua t blkno data = write_gen t ~landing:(Io.fua t.base) blkno data
let flush t = if tick_down t then reject_down t else t.base.Io.flush ()

let io t : Io.t =
  {
    Io.nblocks = t.base.Io.nblocks;
    block_size = t.base.Io.block_size;
    read = read t;
    write = write t;
    flush = (fun () -> flush t);
    write_fua = Some (write_fua t);
  }

let read_errors t = t.read_errors
let write_errors t = t.write_errors
let torn_writes t = t.torn_writes
let torn_skipped t = t.torn_skipped
let down_rejections t = t.down_rejections

let injected t =
  t.read_errors + t.write_errors + t.torn_writes + t.torn_skipped + t.down_rejections
