(** Copy-on-write block media: a map from block number to block content.

    Blocks are immutable strings shared freely between values.  The map
    is a small top array of fixed {!chunk}-block chunks, so {!copy}
    costs one pointer per chunk (64 words for a 4,096-block disk), not
    one per block, and the first {!set} to a chunk a value shares copies
    only that chunk.  Each value owns the chunks it has copied, and
    ownership is decided by physical equality on a per-value token;
    there is no global state.

    A crash image is therefore [copy] of the durable media plus the
    residue's [set]s: O(chunks + touched chunks), not O(disk). *)

type t

val chunk : int
(** Blocks per chunk (64). *)

val create : nblocks:int -> string -> t
(** [nblocks] blocks, every one the given (shared) string. *)

val length : t -> int

val get : t -> int -> string
(** @raise Invalid_argument out of range. *)

val set : t -> int -> string -> unit
(** Replace one block.  Copies the block's chunk first if this value
    shares it with another.  @raise Invalid_argument out of range. *)

val copy : t -> t
(** An independent value with the same blocks, in O(chunks): both sides
    share every chunk until they [set] into it. *)
