(* Simulated block device with a volatile write cache.

   Writes land in a cache and reach the media only on [flush]; a crash
   loses an arbitrary subset of the cached writes (disks reorder), which
   is exactly the failure model journaling must defend against.
   [crash_media_states] enumerates the distinct post-crash media images so
   crash-safety checking can be exhaustive rather than sampled.  Media is
   a copy-on-write [Media.t] of immutable blocks shared between images, so
   an image costs one pointer per 64-block chunk plus the chunks its
   residue touches; [read]/[write] copy at the boundary, [read_shared]
   hands out the shared block itself. *)

type pending = {
  seq : int;
  blkno : int;
  data : string;
}

type t = {
  nblocks : int;
  block_size : int;
  media : Media.t; (* copy-on-write, blocks shared between images *)
  mutable cache : pending list; (* newest first *)
  mutable next_seq : int;
  mutable reads : int;
  mutable writes : int;
  mutable flushes : int;
}

let create ~nblocks ~block_size =
  {
    nblocks;
    block_size;
    media = Media.create ~nblocks (String.make block_size '\000');
    cache = [];
    next_seq = 0;
    reads = 0;
    writes = 0;
    flushes = 0;
  }

let nblocks dev = dev.nblocks
let block_size dev = dev.block_size
let reads dev = dev.reads
let writes dev = dev.writes
let flushes dev = dev.flushes
let pending_writes dev = List.length dev.cache

let in_range dev blkno = blkno >= 0 && blkno < dev.nblocks

(* The device serves reads from its cache: latest write wins. *)
let latest dev blkno =
  dev.reads <- dev.reads + 1;
  match List.find_opt (fun p -> p.blkno = blkno) dev.cache with
  | Some p -> p.data
  | None -> Media.get dev.media blkno

let read_shared dev blkno =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO else Ok (latest dev blkno)

let read dev blkno =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO
  else Ok (Bytes.of_string (latest dev blkno))

let write dev blkno data =
  if not (in_range dev blkno) then Error Ksim.Errno.EIO
  else if Bytes.length data <> dev.block_size then Error Ksim.Errno.EINVAL
  else begin
    dev.writes <- dev.writes + 1;
    dev.cache <- { seq = dev.next_seq; blkno; data = Bytes.to_string data } :: dev.cache;
    dev.next_seq <- dev.next_seq + 1;
    Ok ()
  end

let apply_to media pendings =
  (* Oldest first so that last-write-wins per block. *)
  List.iter (fun p -> Media.set media p.blkno p.data)
    (List.sort (fun a b -> compare a.seq b.seq) pendings)

let flush dev =
  dev.flushes <- dev.flushes + 1;
  apply_to dev.media dev.cache;
  dev.cache <- []

let snapshot_media dev = Media.copy dev.media

let of_media ~block_size media =
  {
    nblocks = Media.length media;
    block_size;
    media;
    cache = [];
    next_seq = 0;
    reads = 0;
    writes = 0;
    flushes = 0;
  }

(* Enumerate distinct post-crash media images: any subset of the cached
   writes may have reached the media.  With [n] pending writes there are up
   to [2^n] images; we enumerate them in a fixed order and stop at
   [limit].  The no-surviving-writes image (bare media) always comes
   first, the all-survived image is always included when within limit. *)
let crash_media_states dev ~limit =
  let pendings = Array.of_list (List.rev dev.cache) (* oldest first *) in
  let n = Array.length pendings in
  let total = if n >= 20 then max_int else 1 lsl n in
  let count = min limit total in
  let images = ref [] in
  let seen = Hashtbl.create 16 in
  let emit mask =
    let media = Media.copy dev.media in
    let subset = ref [] in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then subset := pendings.(i) :: !subset
    done;
    apply_to media !subset;
    (* Equal images differ from the media in the same blocks, alike. *)
    let changed b =
      let blk = Media.get media b in
      if String.equal blk (Media.get dev.media b) then None else Some (b, blk)
    in
    let key = List.filter_map changed (List.sort_uniq compare (List.map (fun p -> p.blkno) !subset)) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      images := media :: !images
    end
  in
  if total <= count then
    for mask = 0 to total - 1 do
      emit mask
    done
  else begin
    (* Too many subsets: take the empty set, all prefixes (in-order
       partial flushes), the full set, then single-dropped-write subsets
       until the limit. *)
    emit 0;
    for k = 1 to n do
      emit ((1 lsl k) - 1)
    done;
    let full = (1 lsl n) - 1 in
    let i = ref 0 in
    while List.length !images < count && !i < n do
      emit (full lxor (1 lsl !i));
      incr i
    done
  end;
  let images = List.rev !images in
  List.filteri (fun i _ -> i < count) images

let crash_states dev ~limit =
  List.map (of_media ~block_size:dev.block_size) (crash_media_states dev ~limit)

(* Lose all cached writes: the canonical single crash. *)
let crash dev = dev.cache <- []

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
      (* The raw device flushes infallibly, so FUA is write + drain. *)
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
