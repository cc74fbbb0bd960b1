(* Little helpers for serializing fixed-width integers and strings into
   block-sized byte buffers.  Used by the journal and the on-disk file
   systems. *)

let put_u32 buf off v =
  if v < 0 then invalid_arg "Codec.put_u32: negative";
  Bytes.set buf off (Char.chr (v land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set buf (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get_u32 buf off =
  Char.code (Bytes.get buf off)
  lor (Char.code (Bytes.get buf (off + 1)) lsl 8)
  lor (Char.code (Bytes.get buf (off + 2)) lsl 16)
  lor (Char.code (Bytes.get buf (off + 3)) lsl 24)

let put_u16 buf off v =
  if v < 0 || v > 0xffff then invalid_arg "Codec.put_u16";
  Bytes.set buf off (Char.chr (v land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get_u16 buf off =
  Char.code (Bytes.get buf off) lor (Char.code (Bytes.get buf (off + 1)) lsl 8)

(* The same readers over an immutable block (e.g. [Blockdev.read_shared]). *)
let string_get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff
let string_get_u16 s off = String.get_uint16_le s off

(* Length-prefixed short string (u16 length). *)
let put_string buf off s =
  let len = String.length s in
  put_u16 buf off len;
  Bytes.blit_string s 0 buf (off + 2) len;
  off + 2 + len

let get_string buf off =
  let len = get_u16 buf off in
  (Bytes.sub_string buf (off + 2) len, off + 2 + len)

(* Order-independent additive checksum, enough to detect torn journal
   records in the simulator. *)
let checksum data =
  let acc = ref 0 in
  Bytes.iter (fun c -> acc := (!acc + Char.code c + 1) land 0x3fffffff) data;
  !acc

let checksum_many datas = List.fold_left (fun acc d -> (acc + checksum d) land 0x3fffffff) 0 datas
