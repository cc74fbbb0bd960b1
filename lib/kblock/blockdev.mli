(** Simulated block device: durable media and nothing else.

    A write reaches the media when it returns; {!flush} is a counted
    barrier with nothing to drain.  Volatility — acked writes that a
    crash may lose, in any subset and order — lives in {!Wcache}, which
    layers over this device's {!io}.  The media is a copy-on-write
    {!Media.t} of immutable blocks shared between images, so a snapshot
    costs one pointer per 64-block chunk plus the chunks later writes
    touch, not the disk's bytes.  {!read} and {!write} copy, so callers
    never see the sharing; {!read_shared} is the zero-copy read for
    parsers. *)

type t

val create : nblocks:int -> block_size:int -> t
val nblocks : t -> int
val block_size : t -> int

val read : t -> int -> bytes Ksim.Errno.r
(** The media block.  [EIO] out of range. *)

val read_shared : t -> int -> string Ksim.Errno.r
(** {!read} without the copy: the media block itself, as an immutable
    string.  Counts as a read. *)

val write : t -> int -> bytes -> unit Ksim.Errno.r
(** A whole-block write to the media.  [EINVAL] on wrong size, [EIO] out
    of range. *)

val flush : t -> unit
(** Durability barrier: every write is already on the media, so this
    only counts. *)

val snapshot_media : t -> Media.t
(** The media: a {!Media.copy}, O(chunks). *)

val of_media : block_size:int -> Media.t -> t
(** A device over [media] itself, not a copy: take a {!Media.copy} first
    if the caller keeps writing to it. *)

val reads : t -> int
val writes : t -> int
val flushes : t -> int

val io : t -> Io.t
(** The raw device as a layerable {!Io.t}: reads/writes as above, [flush]
    never fails. *)

val to_ops : t -> Kspec.Axiom.block_ops
(** View as the byte-level interface the §4.4 axioms talk about. *)
