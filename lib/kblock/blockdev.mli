(** Simulated block device with a volatile write cache.

    Writes land in a cache and reach the media only on {!flush}; a crash
    loses an arbitrary subset of cached writes (disks reorder).  This is
    the failure model journaling defends against, and
    {!crash_media_states} makes it enumerable for exhaustive
    crash-safety checking.  The media is a copy-on-write {!Media.t} of
    immutable blocks shared between images, so an image costs one
    pointer per 64-block chunk plus the chunks its residue touches, not
    the disk's bytes.  {!read} and {!write} copy, so callers never see
    the sharing; {!read_shared} is the zero-copy read for parsers. *)

type t

val create : nblocks:int -> block_size:int -> t
val nblocks : t -> int
val block_size : t -> int

val read : t -> int -> bytes Ksim.Errno.r
(** Serve from the cache (latest write wins) or the media.  [EIO] out of
    range. *)

val read_shared : t -> int -> string Ksim.Errno.r
(** {!read} without the copy: the latest cached write or the media block
    itself, as an immutable string.  Counts as a read. *)

val write : t -> int -> bytes -> unit Ksim.Errno.r
(** Buffer a whole-block write.  [EINVAL] on wrong size, [EIO] out of
    range. *)

val flush : t -> unit
(** Durability barrier: apply all cached writes to the media in order. *)

val crash : t -> unit
(** Drop every cached write (the canonical single crash). *)

val crash_media_states : t -> limit:int -> Media.t list
(** Distinct media images reachable by crashing now: any subset of cached
    writes may have survived.  Exhaustive when [2^pending <= limit];
    otherwise empty set, all prefixes, full set, and single-dropped
    subsets, deduplicated, up to [limit]. *)

val crash_states : t -> limit:int -> t list
(** {!crash_media_states} wrapped into fresh devices with empty caches. *)

val snapshot_media : t -> Media.t
(** The media without cached writes: a {!Media.copy}, O(chunks). *)

val of_media : block_size:int -> Media.t -> t
(** A device over [media] itself, not a copy: take a {!Media.copy} first
    if the caller keeps writing to it. *)

val reads : t -> int
val writes : t -> int
val flushes : t -> int
val pending_writes : t -> int

val io : t -> Io.t
(** The raw device as a layerable {!Io.t}: reads/writes as above, [flush]
    never fails. *)

val to_ops : t -> Kspec.Axiom.block_ops
(** View as the byte-level interface the §4.4 axioms talk about. *)
