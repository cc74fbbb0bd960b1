(* Copy-on-write block media (see media.mli).

   A value is a top array of fixed 64-block chunks.  Each chunk records
   the token of the value that may write it in place; a value's token is
   a fresh [ref ()] compared with [==], so ownership needs no counter or
   table.  [copy] hands both sides a chunk-sharing top array and takes
   ownership away from both: the source gets a new token too, so neither
   can write through a chunk the other still reads. *)

type token = unit ref

type chunk_blocks = {
  owner : token;
  blocks : string array;
}

type t = {
  nblocks : int;
  top : chunk_blocks array;
  mutable token : token;
}

let chunk_bits = 6
let chunk = 1 lsl chunk_bits

let create ~nblocks block =
  if nblocks < 0 then invalid_arg "Media.create: nblocks";
  let token = ref () in
  let top =
    Array.init
      ((nblocks + chunk - 1) / chunk)
      (fun c -> { owner = token; blocks = Array.make (min chunk (nblocks - (c * chunk))) block })
  in
  { nblocks; top; token }

let length t = t.nblocks

let get t blkno =
  if blkno < 0 || blkno >= t.nblocks then invalid_arg "Media.get";
  t.top.(blkno lsr chunk_bits).blocks.(blkno land (chunk - 1))

let set t blkno block =
  if blkno < 0 || blkno >= t.nblocks then invalid_arg "Media.set";
  let c = blkno lsr chunk_bits in
  let ch = t.top.(c) in
  let ch =
    if ch.owner == t.token then ch
    else begin
      let own = { owner = t.token; blocks = Array.copy ch.blocks } in
      t.top.(c) <- own;
      own
    end
  in
  ch.blocks.(blkno land (chunk - 1)) <- block

let copy t =
  t.token <- ref ();
  { nblocks = t.nblocks; top = Array.copy t.top; token = ref () }
