(* Simulated block device: durable media and nothing else.

   A write lands on the media when it returns and [flush] is a counted
   barrier; the volatile cache a crash can lose is [Wcache], layered over
   [io].  Media is a copy-on-write [Media.t] of immutable blocks shared
   between images, so a snapshot costs one pointer per 64-block chunk
   plus the chunks later writes touch; [read]/[write] copy at the
   boundary, [read_shared] hands out the shared block itself. *)

type t = {
  nblocks : int;
  block_size : int;
  media : Media.t; (* copy-on-write, blocks shared between images *)
  mutable reads : int;
  mutable writes : int;
  mutable flushes : int;
}

let of_media ~block_size media =
  { nblocks = Media.length media; block_size; media; reads = 0; writes = 0; flushes = 0 }

let create ~nblocks ~block_size =
  of_media ~block_size (Media.create ~nblocks (String.make block_size '\000'))

let nblocks dev = dev.nblocks
let block_size dev = dev.block_size
let reads dev = dev.reads
let writes dev = dev.writes
let flushes dev = dev.flushes

let in_range dev blkno = blkno >= 0 && blkno < dev.nblocks

let get dev blkno =
  dev.reads <- dev.reads + 1;
  Media.get dev.media blkno

let read_shared dev blkno =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO else Ok (get dev blkno)

let read dev blkno =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO
  else Ok (Bytes.of_string (get dev blkno))

let write dev blkno data =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO
  else if Bytes.length data <> dev.block_size then Error Ksim.Errno.EINVAL
  else begin
    dev.writes <- dev.writes + 1;
    Media.set dev.media blkno (Bytes.to_string data);
    Ok ()
  end

let flush dev = dev.flushes <- dev.flushes + 1
let snapshot_media dev = Media.copy dev.media

let io dev : Io.t =
  {
    Io.nblocks = dev.nblocks;
    block_size = dev.block_size;
    read = read dev;
    write = write dev;
    flush =
      (fun () ->
        flush dev;
        Ok ());
    write_fua =
      (* The raw device flushes infallibly, so FUA is write + barrier. *)
      Some
        (fun blkno data ->
          match write dev blkno data with
          | Ok () ->
              flush dev;
              Ok ()
          | Error _ as e -> e);
  }

let to_ops dev : Kspec.Axiom.block_ops =
  let fail_to_exn = function
    | Ok v -> v
    | Error e -> failwith ("blockdev: " ^ Ksim.Errno.to_string e)
  in
  {
    nblocks = dev.nblocks;
    block_size = dev.block_size;
    read = (fun blkno -> fail_to_exn (read dev blkno));
    write = (fun blkno data -> fail_to_exn (write dev blkno data));
    flush = (fun () -> flush dev);
  }
