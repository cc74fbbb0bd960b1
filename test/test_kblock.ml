(* Tests for the block layer: the crash-semantics device, the buffer_head
   state machine, and the write-ahead journal. *)

let check = Alcotest.check
let fail = Alcotest.fail

let block dev n = Bytes.make (Kblock.Blockdev.block_size dev) n
let write_ok dev i data =
  match Kblock.Blockdev.write dev i data with
  | Ok () -> ()
  | Error e -> fail ("write: " ^ Ksim.Errno.to_string e)

let read_ok dev i =
  match Kblock.Blockdev.read dev i with
  | Ok data -> data
  | Error e -> fail ("read: " ^ Ksim.Errno.to_string e)

(* Blockdev ------------------------------------------------------------------- *)

let test_dev_read_write () =
  let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:16 in
  check Alcotest.string "zeroed" (String.make 16 '\000') (Bytes.to_string (read_ok dev 0));
  write_ok dev 3 (block dev 'x');
  check Alcotest.string "cached read sees write" (String.make 16 'x')
    (Bytes.to_string (read_ok dev 3));
  check Alcotest.int "pending" 1 (Kblock.Blockdev.pending_writes dev)

let test_dev_errors () =
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  check Alcotest.bool "read out of range" true (Kblock.Blockdev.read dev 4 = Error Ksim.Errno.EIO);
  check Alcotest.bool "read negative" true (Kblock.Blockdev.read dev (-1) = Error Ksim.Errno.EIO);
  check Alcotest.bool "write wrong size" true
    (Kblock.Blockdev.write dev 0 (Bytes.make 3 'a') = Error Ksim.Errno.EINVAL);
  check Alcotest.bool "write out of range" true
    (Kblock.Blockdev.write dev 4 (Bytes.make 8 'a') = Error Ksim.Errno.EIO);
  check Alcotest.bool "write negative" true
    (Kblock.Blockdev.write dev (-1) (Bytes.make 8 'a') = Error Ksim.Errno.EIO);
  (* Failed ops leave no trace: nothing cached, nothing counted pending. *)
  check Alcotest.int "no pending after errors" 0 (Kblock.Blockdev.pending_writes dev)

let test_dev_crash_loses_cache () =
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  write_ok dev 1 (block dev 'a');
  Kblock.Blockdev.crash dev;
  check Alcotest.string "lost" (String.make 8 '\000') (Bytes.to_string (read_ok dev 1))

let test_dev_flush_is_durable () =
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  write_ok dev 1 (block dev 'a');
  Kblock.Blockdev.flush dev;
  Kblock.Blockdev.crash dev;
  check Alcotest.string "survives" (String.make 8 'a') (Bytes.to_string (read_ok dev 1));
  check Alcotest.int "no pending" 0 (Kblock.Blockdev.pending_writes dev)

let test_dev_last_write_wins () =
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  write_ok dev 0 (block dev 'a');
  write_ok dev 0 (block dev 'b');
  check Alcotest.string "cache last" (String.make 8 'b') (Bytes.to_string (read_ok dev 0));
  Kblock.Blockdev.flush dev;
  Kblock.Blockdev.crash dev;
  check Alcotest.string "media last" (String.make 8 'b') (Bytes.to_string (read_ok dev 0))

let media_blocks media = List.init (Kblock.Media.length media) (Kblock.Media.get media)

let test_dev_crash_states_exhaustive () =
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  write_ok dev 0 (block dev 'a');
  write_ok dev 1 (block dev 'b');
  let states = Kblock.Blockdev.crash_media_states dev ~limit:64 in
  (* 2 pending writes to distinct blocks: 4 distinct media images. *)
  check Alcotest.int "2^2 images" 4 (List.length states);
  (* The bare-media image must be included. *)
  check Alcotest.bool "empty image present" true
    (List.exists
       (fun media ->
         List.for_all (fun b -> b = String.make 8 '\000') (media_blocks media))
       states)

let test_dev_crash_states_dedup () =
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  write_ok dev 0 (block dev 'a');
  write_ok dev 0 (block dev 'a') (* identical write: subsets collapse *);
  let states = Kblock.Blockdev.crash_media_states dev ~limit:64 in
  check Alcotest.int "deduplicated" 2 (List.length states)

let media_fingerprint media = String.concat "" (media_blocks media)

let test_dev_crash_states_limit_boundary () =
  let mk () =
    let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
    write_ok dev 0 (block dev 'a');
    write_ok dev 1 (block dev 'b');
    write_ok dev 2 (block dev 'c');
    dev
  in
  (* 3 pending writes: 8 subsets.  At limit = 8 enumeration is exhaustive. *)
  let exhaustive = Kblock.Blockdev.crash_media_states (mk ()) ~limit:8 in
  check Alcotest.int "exactly at limit: exhaustive" 8 (List.length exhaustive);
  (* One below the boundary: the sampled fallback, still within limit,
     still deduplicated, still containing the two must-have images. *)
  let sampled = Kblock.Blockdev.crash_media_states (mk ()) ~limit:7 in
  check Alcotest.bool "within limit" true (List.length sampled <= 7);
  let prints = List.map media_fingerprint sampled in
  check Alcotest.int "no duplicates" (List.length prints)
    (List.length (List.sort_uniq compare prints));
  let blank = String.make 32 '\000' in
  check Alcotest.bool "bare media present" true (List.mem blank prints);
  let full = String.concat "" [ String.make 8 'a'; String.make 8 'b'; String.make 8 'c'; String.make 8 '\000' ] in
  check Alcotest.bool "all-survived present" true (List.mem full prints);
  (* Every sampled image is one of the true subsets. *)
  let all = List.map media_fingerprint exhaustive in
  List.iter (fun p -> check Alcotest.bool "a real subset" true (List.mem p all)) prints

let test_dev_snapshot_of_media () =
  let dev = Kblock.Blockdev.create ~nblocks:2 ~block_size:4 in
  write_ok dev 0 (Bytes.of_string "abcd");
  Kblock.Blockdev.flush dev;
  let dev2 = Kblock.Blockdev.of_media ~block_size:4 (Kblock.Blockdev.snapshot_media dev) in
  check Alcotest.string "copied" "abcd" (Bytes.to_string (read_ok dev2 0));
  (* Deep copy: mutating the clone does not touch the original. *)
  write_ok dev2 0 (Bytes.of_string "WXYZ");
  Kblock.Blockdev.flush dev2;
  check Alcotest.string "original intact" "abcd" (Bytes.to_string (read_ok dev 0))

(* Media: the copy-on-write block map ---------------------------------------- *)

(* A family of media values driven by random set/copy/get calls must
   agree with a plain-array model in which every copy is deep.  150
   blocks leave the last 64-block chunk partial. *)
let prop_media_matches_deep_copy_model =
  let nblocks = 150 in
  QCheck2.Test.make ~name:"media agrees with a deep-copy model" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (quad (int_range 0 2) (int_range 0 1000) (int_range 0 1000) (char_range 'a' 'z')))
    (fun script ->
      let values = ref [| Kblock.Media.create ~nblocks "0" |] in
      let model = ref [| Array.make nblocks "0" |] in
      let agree = ref true in
      List.iter
        (fun (kind, v, i, c) ->
          let v = v mod Array.length !values and i = i mod nblocks in
          match kind with
          | 0 ->
              Kblock.Media.set !values.(v) i (String.make 1 c);
              !model.(v).(i) <- String.make 1 c
          | 1 ->
              values := Array.append !values [| Kblock.Media.copy !values.(v) |];
              model := Array.append !model [| Array.copy !model.(v) |]
          | _ -> if Kblock.Media.get !values.(v) i <> !model.(v).(i) then agree := false)
        script;
      !agree
      && Array.for_all2
           (fun m expected -> media_blocks m = Array.to_list expected)
           !values !model)

let test_media_copy_is_o_chunks () =
  let nblocks = 4096 in
  let m = Kblock.Media.create ~nblocks (String.make 512 '\000') in
  let w0 = Gc.minor_words () in
  let c = Kblock.Media.copy m in
  let copy_words = Gc.minor_words () -. w0 in
  let chunks = nblocks / Kblock.Media.chunk in
  if copy_words > float_of_int (2 * chunks) then
    Alcotest.failf "copy allocated %.0f words for %d chunks (%d blocks)" copy_words chunks nblocks;
  (* The first set to a shared chunk copies that chunk, not the disk. *)
  let w1 = Gc.minor_words () in
  Kblock.Media.set c 100 "x";
  let set_words = Gc.minor_words () -. w1 in
  if set_words > float_of_int (2 * Kblock.Media.chunk) then
    Alcotest.failf "first set allocated %.0f words (chunk is %d blocks)" set_words
      Kblock.Media.chunk;
  (* Later sets to the now-owned chunk allocate nothing. *)
  let w2 = Gc.minor_words () in
  Kblock.Media.set c 101 "y";
  check (Alcotest.float 0.) "owned set allocates nothing" 0. (Gc.minor_words () -. w2);
  check Alcotest.string "copy sees its write" "x" (Kblock.Media.get c 100);
  check Alcotest.string "source unchanged" (String.make 512 '\000') (Kblock.Media.get m 100);
  (* Both sides gave up ownership: the source's next set copies too. *)
  Kblock.Media.set m 100 "z";
  check Alcotest.string "copy unchanged" "x" (Kblock.Media.get c 100)

let test_dev_read_shared_matches_read () =
  let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:4 in
  write_ok dev 1 (Bytes.of_string "aaaa");
  write_ok dev 2 (Bytes.of_string "bbbb");
  Kblock.Blockdev.flush dev;
  (* pending on top of the media, one block overwritten twice *)
  write_ok dev 2 (Bytes.of_string "cccc");
  write_ok dev 3 (Bytes.of_string "dddd");
  write_ok dev 3 (Bytes.of_string "eeee");
  check Alcotest.int "writes pending" 3 (Kblock.Blockdev.pending_writes dev);
  for b = 0 to 7 do
    match Kblock.Blockdev.read_shared dev b with
    | Ok s ->
        check Alcotest.string (Printf.sprintf "block %d" b) (Bytes.to_string (read_ok dev b)) s
    | Error e -> fail ("read_shared: " ^ Ksim.Errno.to_string e)
  done;
  check Alcotest.bool "read_shared out of range" true
    (Kblock.Blockdev.read_shared dev 8 = Error Ksim.Errno.EIO);
  check Alcotest.int "both count as reads" 16 (Kblock.Blockdev.reads dev)

let prop_flush_then_crash_preserves_all =
  QCheck2.Test.make ~name:"flush makes all writes durable" ~count:100
    QCheck2.Gen.(list_size (int_range 1 20) (pair (int_range 0 7) (char_range 'a' 'z')))
    (fun writes ->
      let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:4 in
      List.iter (fun (i, c) -> write_ok dev i (Bytes.make 4 c)) writes;
      let expected = Array.make 8 '\000' in
      List.iter (fun (i, c) -> expected.(i) <- c) writes;
      Kblock.Blockdev.flush dev;
      Kblock.Blockdev.crash dev;
      List.for_all
        (fun i -> Bytes.to_string (read_ok dev i) = String.make 4 expected.(i))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let prop_blockdev_satisfies_axioms =
  (* The §4.4 boundary: the concrete device must satisfy the byte-level
     axioms a verified client assumes of it. *)
  QCheck2.Test.make ~name:"blockdev satisfies the block axioms" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30)
                   (triple (int_range 0 2) (int_range 0 7) (char_range 'a' 'z')))
    (fun script ->
      let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:4 in
      let shim = Kspec.Axiom.shim ~strict:false (Kblock.Blockdev.to_ops dev) in
      let ops = Kspec.Axiom.ops shim in
      List.iter
        (fun (kind, blkno, c) ->
          match kind with
          | 0 -> ops.Kspec.Axiom.write blkno (Bytes.make 4 c)
          | 1 -> ignore (ops.Kspec.Axiom.read blkno)
          | _ -> ops.Kspec.Axiom.flush ())
        script;
      Kspec.Axiom.violations shim = [])

(* Buffer_head ------------------------------------------------------------------ *)

let flags_of = Kblock.Buffer_head.Flags.of_list

let test_bh_valid_combinations () =
  let open Kblock.Buffer_head in
  check Alcotest.bool "empty valid" true (is_valid Flags.empty);
  check Alcotest.bool "clean mapped uptodate" true (is_valid (flags_of [ Mapped; Uptodate ]));
  check Alcotest.bool "dirty triple" true (is_valid (flags_of [ Mapped; Uptodate; Dirty ]));
  check Alcotest.bool "async write under lock" true
    (is_valid (flags_of [ Mapped; Uptodate; Lock; Async_write ]))

let test_bh_invalid_combinations () =
  let open Kblock.Buffer_head in
  check Alcotest.bool "dirty w/o uptodate" false (is_valid (flags_of [ Mapped; Dirty ]));
  check Alcotest.bool "dirty w/o mapped" false (is_valid (flags_of [ Uptodate; Dirty ]));
  check Alcotest.bool "async write w/o lock" false
    (is_valid (flags_of [ Mapped; Uptodate; Async_write ]));
  check Alcotest.bool "both async directions" false
    (is_valid (flags_of [ Mapped; Uptodate; Lock; Async_read; Async_write ]));
  check Alcotest.bool "delay+mapped" false (is_valid (flags_of [ Delay; Mapped ]));
  check Alcotest.bool "prio w/o meta" false (is_valid (flags_of [ Mapped; Prio ]));
  (match validate (flags_of [ Mapped; Dirty ]) with
  | [ rule ] -> check Alcotest.string "names the rule" "dirty-implies-uptodate" rule
  | l -> fail (Printf.sprintf "expected 1 broken rule, got %d" (List.length l)))

let test_bh_sixteen_flags () =
  check Alcotest.int "sixteen" 16 (List.length Kblock.Buffer_head.all_flags)

let test_bh_flag_set_ops () =
  let open Kblock.Buffer_head in
  let f = Flags.add Dirty (Flags.add Mapped Flags.empty) in
  check Alcotest.bool "mem" true (Flags.mem Dirty f);
  let f = Flags.remove Dirty f in
  check Alcotest.bool "removed" false (Flags.mem Dirty f);
  check Alcotest.(list bool) "to_list/of_list roundtrip" [ true ]
    [ Flags.to_list (flags_of [ Mapped; Meta ]) = [ Mapped; Meta ] ]

let test_bh_cache_lifecycle () =
  let open Kblock.Buffer_head in
  let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:16 in
  write_ok dev 2 (Bytes.make 16 'z');
  Kblock.Blockdev.flush dev;
  let cache = create dev in
  let bh = bread cache 2 in
  check Alcotest.bool "uptodate after read" true (Flags.mem Uptodate bh.flags);
  check Alcotest.string "content" (String.make 16 'z') (Bytes.to_string bh.data);
  set_data cache bh (Bytes.make 16 'w');
  check Alcotest.bool "dirty after set" true (Flags.mem Dirty bh.flags);
  check Alcotest.int "one dirty" 1 (dirty_count cache);
  sync cache;
  check Alcotest.int "clean after sync" 0 (dirty_count cache);
  Kblock.Blockdev.crash dev;
  check Alcotest.string "synced to media" (String.make 16 'w') (Bytes.to_string (read_ok dev 2))

let test_bh_mark_dirty_on_stale_buffer_caught () =
  let open Kblock.Buffer_head in
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  let cache = create dev in
  let bh = getblk cache 0 (* mapped, NOT uptodate *) in
  match mark_dirty cache bh with
  | _ -> fail "expected Invalid_state"
  | exception Invalid_state { broken; _ } ->
      check Alcotest.bool "dirty-implies-uptodate broken" true
        (List.mem "dirty-implies-uptodate" broken)

let test_bh_checks_can_be_disabled () =
  let open Kblock.Buffer_head in
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  let cache = create ~check_states:false dev in
  let bh = getblk cache 0 in
  mark_dirty cache bh (* the invalid transition sails through *);
  check Alcotest.int "no checks ran" 0 (state_checks cache)

let test_bh_refcount_and_drop () =
  let open Kblock.Buffer_head in
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  let cache = create dev in
  let bh = bread cache 1 in
  let bh' = getblk cache 1 in
  check Alcotest.int "same buffer" bh.blkno bh'.blkno;
  check Alcotest.int "refcount 2" 2 bh.refcount;
  check Alcotest.int "nothing droppable" 0 (drop cache);
  brelse bh;
  brelse bh';
  check Alcotest.int "dropped clean buffer" 1 (drop cache);
  check Alcotest.int "cache empty" 0 (cached_count cache)

let test_bh_submit_clean_is_noop () =
  let open Kblock.Buffer_head in
  let dev = Kblock.Blockdev.create ~nblocks:4 ~block_size:8 in
  let cache = create dev in
  let bh = bread cache 0 in
  (match submit_write cache bh with Ok () -> () | Error _ -> fail "clean submit");
  check Alcotest.int "no device write" 0 (Kblock.Blockdev.pending_writes dev)

let prop_random_flagsets_validate_consistently =
  QCheck2.Test.make ~name:"validate agrees with is_valid" ~count:300
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 15))
    (fun bits ->
      let flags =
        List.fold_left
          (fun acc i -> Kblock.Buffer_head.Flags.add (List.nth Kblock.Buffer_head.all_flags i) acc)
          Kblock.Buffer_head.Flags.empty bits
      in
      Kblock.Buffer_head.is_valid flags = (Kblock.Buffer_head.validate flags = []))

(* Journal ------------------------------------------------------------------------ *)

let mk_journal () =
  let dev = Kblock.Blockdev.create ~nblocks:64 ~block_size:64 in
  (dev, Kblock.Journal.format (Kblock.Blockdev.io dev) ~jblocks:16)

let checkpoint_ok j =
  match Kblock.Journal.checkpoint j with
  | Ok () -> ()
  | Error e -> fail ("checkpoint: " ^ Ksim.Errno.to_string e)

let test_journal_commit_checkpoint_read () =
  let dev, j = mk_journal () in
  let home = Kblock.Journal.data_start j in
  let tx = Kblock.Journal.tx_begin j in
  (match Kblock.Journal.tx_write j tx ~blkno:home (Bytes.make 64 'a') with
  | Ok () -> ()
  | Error e -> fail (Ksim.Errno.to_string e));
  (match Kblock.Journal.commit j tx with Ok () -> () | Error e -> fail (Ksim.Errno.to_string e));
  check Alcotest.int "one pending tx" 1 (Kblock.Journal.pending_txs j);
  checkpoint_ok j;
  check Alcotest.int "checkpointed" 0 (Kblock.Journal.pending_txs j);
  check Alcotest.string "home updated" (String.make 64 'a') (Bytes.to_string (read_ok dev home))

let test_journal_tx_rejects_journal_area () =
  let _, j = mk_journal () in
  let tx = Kblock.Journal.tx_begin j in
  check Alcotest.bool "journal-area write rejected" true
    (Kblock.Journal.tx_write j tx ~blkno:3 (Bytes.make 64 'x') = Error Ksim.Errno.EINVAL);
  check Alcotest.bool "wrong size rejected" true
    (Kblock.Journal.tx_write j tx ~blkno:20 (Bytes.make 10 'x') = Error Ksim.Errno.EINVAL)

let test_journal_recovery_replays_committed () =
  let dev, j = mk_journal () in
  let home = Kblock.Journal.data_start j in
  let tx = Kblock.Journal.tx_begin j in
  ignore (Kblock.Journal.tx_write j tx ~blkno:home (Bytes.make 64 'b'));
  ignore (Kblock.Journal.tx_write j tx ~blkno:(home + 1) (Bytes.make 64 'c'));
  (match Kblock.Journal.commit j tx with Ok () -> () | Error e -> fail (Ksim.Errno.to_string e));
  (* Crash before checkpoint: home writes never issued, journal durable. *)
  Kblock.Blockdev.crash dev;
  let j2 = Kblock.Journal.recover (Kblock.Blockdev.io dev) ~jblocks:16 in
  check Alcotest.int "one tx replayed" 1 (Kblock.Journal.stats j2).Kblock.Journal.replayed_txs;
  check Alcotest.string "home 0" (String.make 64 'b') (Bytes.to_string (read_ok dev home));
  check Alcotest.string "home 1" (String.make 64 'c') (Bytes.to_string (read_ok dev (home + 1)))

let test_journal_recovery_ignores_uncommitted () =
  let dev, j = mk_journal () in
  let home = Kblock.Journal.data_start j in
  (* Simulate a torn commit: write descriptor + data manually, no commit
     record, then crash. *)
  let tx = Kblock.Journal.tx_begin j in
  ignore (Kblock.Journal.tx_write j tx ~blkno:home (Bytes.make 64 'z'));
  (* Don't commit; instead crash with nothing journaled. *)
  Kblock.Blockdev.crash dev;
  let j2 = Kblock.Journal.recover (Kblock.Blockdev.io dev) ~jblocks:16 in
  check Alcotest.int "nothing replayed" 0 (Kblock.Journal.stats j2).Kblock.Journal.replayed_txs;
  check Alcotest.string "home untouched" (String.make 64 '\000')
    (Bytes.to_string (read_ok dev home))

let test_journal_recovery_idempotent () =
  let dev, j = mk_journal () in
  let home = Kblock.Journal.data_start j in
  let tx = Kblock.Journal.tx_begin j in
  ignore (Kblock.Journal.tx_write j tx ~blkno:home (Bytes.make 64 'q'));
  ignore (Kblock.Journal.commit j tx);
  Kblock.Blockdev.crash dev;
  let _ = Kblock.Journal.recover (Kblock.Blockdev.io dev) ~jblocks:16 in
  let j3 = Kblock.Journal.recover (Kblock.Blockdev.io dev) ~jblocks:16 in
  (* Second recovery: the tx is already checkpointed, nothing replays. *)
  check Alcotest.int "idempotent" 0 (Kblock.Journal.stats j3).Kblock.Journal.replayed_txs;
  check Alcotest.string "content stable" (String.make 64 'q')
    (Bytes.to_string (read_ok dev home))

let test_journal_coalesces_same_block () =
  let dev, j = mk_journal () in
  let home = Kblock.Journal.data_start j in
  let tx = Kblock.Journal.tx_begin j in
  ignore (Kblock.Journal.tx_write j tx ~blkno:home (Bytes.make 64 'a'));
  ignore (Kblock.Journal.tx_write j tx ~blkno:home (Bytes.make 64 'b'));
  ignore (Kblock.Journal.commit j tx);
  checkpoint_ok j;
  check Alcotest.string "last write wins" (String.make 64 'b')
    (Bytes.to_string (read_ok dev home))

let test_journal_auto_checkpoint_on_full () =
  let dev, j = mk_journal () in
  let home = Kblock.Journal.data_start j in
  (* Each tx costs 3 journal blocks (D, data, C); the 15-block record area
     fits 5; the 6th must force a checkpoint rather than fail. *)
  for i = 0 to 7 do
    let tx = Kblock.Journal.tx_begin j in
    ignore (Kblock.Journal.tx_write j tx ~blkno:(home + i) (Bytes.make 64 'k'));
    match Kblock.Journal.commit j tx with
    | Ok () -> ()
    | Error e -> fail (Ksim.Errno.to_string e)
  done;
  check Alcotest.bool "auto checkpoint happened" true
    ((Kblock.Journal.stats j).Kblock.Journal.checkpoints >= 1);
  checkpoint_ok j;
  for i = 0 to 7 do
    check Alcotest.string "all landed" (String.make 64 'k')
      (Bytes.to_string (read_ok dev (home + i)))
  done

let test_journal_oversized_tx_rejected () =
  let dev = Kblock.Blockdev.create ~nblocks:256 ~block_size:64 in
  let j = Kblock.Journal.format (Kblock.Blockdev.io dev) ~jblocks:8 in
  let home = Kblock.Journal.data_start j in
  let tx = Kblock.Journal.tx_begin j in
  for i = 0 to 9 do
    ignore (Kblock.Journal.tx_write j tx ~blkno:(home + i) (Bytes.make 64 'x'))
  done;
  match Kblock.Journal.commit j tx with
  | Ok () -> fail "expected failure"
  | Error _ -> ()
  | exception Kblock.Journal.Journal_full -> ()

(* QCheck: random committed transactions survive crash + recovery; the
   final home state equals last-committed-write-wins. *)
let prop_journal_crash_recovery_consistent =
  QCheck2.Test.make ~name:"committed txs survive any crash point" ~count:60
    QCheck2.Gen.(
      list_size (int_range 1 6) (list_size (int_range 1 3) (pair (int_range 0 8) printable)))
    (fun txs ->
      let dev = Kblock.Blockdev.create ~nblocks:128 ~block_size:64 in
      let j = Kblock.Journal.format (Kblock.Blockdev.io dev) ~jblocks:32 in
      let home = Kblock.Journal.data_start j in
      let expected = Hashtbl.create 8 in
      List.iter
        (fun writes ->
          let tx = Kblock.Journal.tx_begin j in
          List.iter
            (fun (i, c) ->
              ignore (Kblock.Journal.tx_write j tx ~blkno:(home + i) (Bytes.make 64 c)))
            writes;
          match Kblock.Journal.commit j tx with
          | Ok () -> List.iter (fun (i, c) -> Hashtbl.replace expected i c) writes
          | Error _ -> ())
        txs;
      Kblock.Blockdev.crash dev;
      let _ = Kblock.Journal.recover (Kblock.Blockdev.io dev) ~jblocks:32 in
      Hashtbl.fold
        (fun i c acc ->
          acc && Bytes.to_string (read_ok dev (home + i)) = String.make 64 c)
        expected true)

(* Flakydev / Resilient -------------------------------------------------------- *)

let mk_flaky ?(seed = 42) () =
  let dev = Kblock.Blockdev.create ~nblocks:16 ~block_size:8 in
  let fp = Ksim.Failpoint.create ~seed () in
  let flaky = Kblock.Flakydev.create ~fp (Kblock.Blockdev.io dev) in
  (dev, fp, flaky)

let test_flaky_read_eio_deterministic () =
  let dev, fp, flaky = mk_flaky () in
  write_ok dev 0 (block dev 'x');
  Ksim.Failpoint.configure fp "flaky.read-eio" ~enabled:true ~interval:2 ~times:2 ();
  let io = Kblock.Flakydev.io flaky in
  let results = List.init 6 (fun _ -> Result.is_ok (io.Kblock.Io.read 0)) in
  (* Hits 2 and 4 inject; the times budget then runs dry. *)
  check Alcotest.(list bool) "schedule" [ true; false; true; false; true; true ] results;
  check Alcotest.int "two read errors" 2 (Kblock.Flakydev.read_errors flaky)

let test_flaky_torn_write () =
  let dev, fp, flaky = mk_flaky () in
  write_ok dev 0 (Bytes.of_string "OLDOLDOL");
  Kblock.Blockdev.flush dev;
  Ksim.Failpoint.configure fp "flaky.torn-write" ~enabled:true ~times:1 ();
  let io = Kblock.Flakydev.io flaky in
  check Alcotest.bool "write fails" true (io.Kblock.Io.write 0 (Bytes.of_string "newnewne") = Error Ksim.Errno.EIO);
  check Alcotest.int "one torn write" 1 (Kblock.Flakydev.torn_writes flaky);
  (* A proper tear: some prefix of the new data over the old content. *)
  let landed = Bytes.to_string (read_ok dev 0) in
  check Alcotest.bool "not the full new data" true (landed <> "newnewne");
  check Alcotest.bool "not the old data either" true (landed <> "OLDOLDOL");
  let tear = ref 0 in
  String.iteri (fun i c -> if c = "newnewne".[i] && !tear = i then incr tear) landed;
  check Alcotest.bool "prefix of new" true (!tear >= 1);
  check Alcotest.string "suffix of old" (String.sub "OLDOLDOL" !tear (8 - !tear))
    (String.sub landed !tear (8 - !tear));
  (* Deterministic: the same seed draws the same tear offset. *)
  let dev2, fp2, flaky2 = mk_flaky () in
  write_ok dev2 0 (Bytes.of_string "OLDOLDOL");
  Kblock.Blockdev.flush dev2;
  Ksim.Failpoint.configure fp2 "flaky.torn-write" ~enabled:true ~times:1 ();
  ignore ((Kblock.Flakydev.io flaky2).Kblock.Io.write 0 (Bytes.of_string "newnewne"));
  check Alcotest.string "replayable tear" landed (Bytes.to_string (read_ok dev2 0))

let test_flaky_availability_window () =
  let dev, _, flaky = mk_flaky () in
  write_ok dev 0 (block dev 'x');
  Kblock.Blockdev.flush dev;
  Kblock.Flakydev.set_availability flaky ~up:2 ~down:2;
  let io = Kblock.Flakydev.io flaky in
  let results = List.init 8 (fun _ -> Result.is_ok (io.Kblock.Io.read 0)) in
  check Alcotest.(list bool) "2 up, 2 down, repeating"
    [ true; true; false; false; true; true; false; false ]
    results;
  check Alcotest.int "down rejections" 4 (Kblock.Flakydev.down_rejections flaky);
  (* Skip past the next up window: flush also fails once down. *)
  ignore (io.Kblock.Io.read 0);
  ignore (io.Kblock.Io.read 0);
  check Alcotest.bool "flush rejected when down" true (Result.is_error (io.Kblock.Io.flush ()));
  check Alcotest.bool "invalid window rejected" true
    (try
       Kblock.Flakydev.set_availability flaky ~up:0 ~down:1;
       false
     with Invalid_argument _ -> true)

let test_fua_compat_propagates_flush_error () =
  (* The [Io.fua] compat shim is write + full flush for layers without
     native FUA.  Regression: a successful write whose follow-up flush
     fails must surface the flush error — acking a still-volatile write
     as durable would be a silent barrier elision.  Flakydev's
     availability window is the rig: the write lands in the up window,
     the flush falls in the down window. *)
  (* clean path first: the shim is write + full barrier *)
  let dev0, _, flaky0 = mk_flaky () in
  let compat0 = { (Kblock.Flakydev.io flaky0) with Kblock.Io.write_fua = None } in
  check Alcotest.bool "fua ok while up" true (Kblock.Io.fua compat0 0 (block dev0 'z') = Ok ());
  check Alcotest.int "shim flushed the device" 1 (Kblock.Blockdev.flushes dev0);
  (* fresh rig so the op tick starts at the window boundary: the write is
     op 0 (up), the flush op 1 (down) *)
  let dev, _, flaky = mk_flaky () in
  let compat = { (Kblock.Flakydev.io flaky) with Kblock.Io.write_fua = None } in
  Kblock.Flakydev.set_availability flaky ~up:1 ~down:2;
  let res = Kblock.Io.fua compat 1 (block dev 'y') in
  check Alcotest.bool "flush error propagates through the shim" true
    (res = Error Ksim.Errno.EIO);
  check Alcotest.int "the write itself had been accepted" 1 (Kblock.Blockdev.writes dev);
  check Alcotest.int "no flush reached the device" 0 (Kblock.Blockdev.flushes dev);
  check Alcotest.int "the down window rejected it" 1 (Kblock.Flakydev.down_rejections flaky);
  (* and a failed write short-circuits: the flush is never attempted *)
  let res = Kblock.Io.fua compat 2 (block dev 'x') in
  check Alcotest.bool "write error propagates too" true (res = Error Ksim.Errno.EIO);
  check Alcotest.int "still no flush" 0 (Kblock.Blockdev.flushes dev);
  check Alcotest.int "no second write either" 1 (Kblock.Blockdev.writes dev)

(* An Io.t that fails the first [failures] calls of each op with [err]. *)
let unreliable_io ?(err = Ksim.Errno.EIO) ~failures base =
  let budget = ref failures in
  let gate f =
    if !budget > 0 then begin
      decr budget;
      Error err
    end
    else f ()
  in
  {
    Kblock.Io.nblocks = base.Kblock.Io.nblocks;
    block_size = base.Kblock.Io.block_size;
    read = (fun blkno -> gate (fun () -> base.Kblock.Io.read blkno));
    write = (fun blkno data -> gate (fun () -> base.Kblock.Io.write blkno data));
    flush = (fun () -> gate base.Kblock.Io.flush);
    write_fua = None;
  }

let test_resilient_recovers_transient () =
  let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:8 in
  let r = Kblock.Resilient.create ~max_attempts:4 (unreliable_io ~failures:2 (Kblock.Blockdev.io dev)) in
  (match Kblock.Resilient.write r 0 (block dev 'w') with
  | Ok () -> ()
  | Error e -> fail ("expected recovery, got " ^ Ksim.Errno.to_string e));
  check Alcotest.int "one op" 1 (Kblock.Resilient.ops r);
  check Alcotest.int "two retries" 2 (Kblock.Resilient.retries r);
  check Alcotest.int "one recovered op" 1 (Kblock.Resilient.recovered_ops r);
  check Alcotest.int "no permanent failure" 0 (Kblock.Resilient.permanent_failures r);
  (* Deterministic backoff: 100 + 200 simulated ns for attempts 1 and 2. *)
  check Alcotest.int "simulated backoff" 300 (Kblock.Resilient.simulated_ns r);
  check Alcotest.string "write landed" (String.make 8 'w') (Bytes.to_string (read_ok dev 0))

let test_resilient_permanent_verdict () =
  let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:8 in
  let r = Kblock.Resilient.create ~max_attempts:3 (unreliable_io ~failures:99 (Kblock.Blockdev.io dev)) in
  check Alcotest.bool "EIO propagates" true (Kblock.Resilient.write r 0 (block dev 'w') = Error Ksim.Errno.EIO);
  check Alcotest.int "permanent verdict" 1 (Kblock.Resilient.permanent_failures r);
  check Alcotest.int "budget consumed" 2 (Kblock.Resilient.retries r)

(* The trace text of the recovered and permanent-failure paths, one op
   of each kind. *)
let test_resilient_trace_text () =
  let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:8 in
  let trace = Ksim.Ktrace.create () in
  let r =
    Kblock.Resilient.create ~max_attempts:2 ~trace
      (unreliable_io ~failures:1 (Kblock.Blockdev.io dev))
  in
  let (_ : bytes Ksim.Errno.r) = Kblock.Resilient.read r 3 in
  let dead =
    Kblock.Resilient.create ~max_attempts:2 ~trace
      (unreliable_io ~failures:99 (Kblock.Blockdev.io dev))
  in
  let (_ : unit Ksim.Errno.r) = Kblock.Resilient.write dead 5 (block dev 'w') in
  let (_ : unit Ksim.Errno.r) = Kblock.Resilient.write_fua dead 6 (block dev 'w') in
  let (_ : unit Ksim.Errno.r) = Kblock.Resilient.flush dead in
  check
    Alcotest.(list string)
    "messages"
    [
      "read 3: recovered on attempt 2";
      "write 5: permanent failure (EIO) after 2 attempts";
      "write-fua 6: permanent failure (EIO) after 2 attempts";
      "flush: permanent failure (EIO) after 2 attempts";
    ]
    (List.map (fun (e : Ksim.Ktrace.event) -> e.Ksim.Ktrace.message) (Ksim.Ktrace.events trace))

let test_resilient_nontransient_immediate () =
  let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:8 in
  let r = Kblock.Resilient.create ~max_attempts:4 (Kblock.Blockdev.io dev) in
  (* EINVAL is not transient: no retries, no permanent-failure verdict. *)
  check Alcotest.bool "EINVAL propagates" true
    (Kblock.Resilient.write r 0 (Bytes.make 3 'x') = Error Ksim.Errno.EINVAL);
  check Alcotest.int "no retries" 0 (Kblock.Resilient.retries r);
  check Alcotest.int "no permanent verdict" 0 (Kblock.Resilient.permanent_failures r)

let test_resilient_seeded_jitter () =
  let sleep ~seed =
    let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:8 in
    let r =
      Kblock.Resilient.create ~max_attempts:4 ~jitter:0.5 ~seed
        (unreliable_io ~failures:2 (Kblock.Blockdev.io dev))
    in
    (match Kblock.Resilient.write r 0 (block dev 'w') with
    | Ok () -> ()
    | Error e -> fail ("expected recovery, got " ^ Ksim.Errno.to_string e));
    Kblock.Resilient.simulated_ns r
  in
  (* Replayable: the same seed draws the same jitter. *)
  check Alcotest.int "same seed, same clock" (sleep ~seed:3) (sleep ~seed:3);
  (* Jitter only ever stretches the backoff: within [backoff, 1.5*backoff]
     for the two sleeps (100 + 200 unjittered). *)
  let ns = sleep ~seed:3 in
  check Alcotest.bool "stretched, bounded" true (ns >= 300 && ns <= 450);
  (* Distinct seeds decorrelate instances (300..450 leaves 151 cells; the
     chance of 5 seeds colliding by accident is negligible). *)
  let sleeps = List.map (fun seed -> sleep ~seed) [ 1; 2; 3; 4; 5 ] in
  check Alcotest.bool "seeds decorrelate" true
    (List.length (List.sort_uniq compare sleeps) > 1);
  check Alcotest.bool "bad jitter rejected" true
    (try
       let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:8 in
       let _ = Kblock.Resilient.create ~jitter:1.5 (Kblock.Blockdev.io dev) in
       false
     with Invalid_argument _ -> true)

(* Supervised ------------------------------------------------------------------- *)

let test_supervised_microreboot_and_stale_client () =
  let generation = ref 0 in
  let boom = ref false in
  let remake () =
    incr generation;
    let dev = Kblock.Blockdev.create ~nblocks:8 ~block_size:8 in
    let base = Kblock.Blockdev.io dev in
    {
      base with
      Kblock.Io.read =
        (fun blkno ->
          if !boom then begin
            boom := false;
            raise (Ksim.Supervisor.Module_panic "blk.read")
          end
          else base.Kblock.Io.read blkno);
    }
  in
  let s =
    Kblock.Supervised.create ~trace:(Ksim.Ktrace.create ()) ~name:"blk" ~remake ()
  in
  let client = Kblock.Supervised.io s in
  check Alcotest.bool "healthy read" true (Result.is_ok (client.Kblock.Io.read 0));
  boom := true;
  (* Panic contained; the stack microreboots behind the scenes. *)
  check Alcotest.bool "oops contained" true (client.Kblock.Io.read 0 = Error Ksim.Errno.EIO);
  check Alcotest.bool "quiesce EINTR" true (client.Kblock.Io.read 0 = Error Ksim.Errno.EINTR);
  (* The reboot happens on this call, so the old client discovers its own
     staleness. *)
  check Alcotest.bool "old client ESTALE" true
    (client.Kblock.Io.read 0 = Error Ksim.Errno.ESTALE);
  check Alcotest.int "stack rebuilt" 2 !generation;
  check Alcotest.int "epoch bumped" 1 (Kblock.Supervised.epoch s);
  (* A freshly minted client reaches the new generation. *)
  let fresh = Kblock.Supervised.io s in
  check Alcotest.bool "fresh client works" true (Result.is_ok (fresh.Kblock.Io.read 0))

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "kblock"
    [
      ( "blockdev",
        Alcotest.test_case "read/write" `Quick test_dev_read_write
        :: Alcotest.test_case "errors" `Quick test_dev_errors
        :: Alcotest.test_case "crash loses cache" `Quick test_dev_crash_loses_cache
        :: Alcotest.test_case "flush durable" `Quick test_dev_flush_is_durable
        :: Alcotest.test_case "last write wins" `Quick test_dev_last_write_wins
        :: Alcotest.test_case "crash states exhaustive" `Quick test_dev_crash_states_exhaustive
        :: Alcotest.test_case "crash states dedup" `Quick test_dev_crash_states_dedup
        :: Alcotest.test_case "crash states limit boundary" `Quick
             test_dev_crash_states_limit_boundary
        :: Alcotest.test_case "snapshot is deep" `Quick test_dev_snapshot_of_media
        :: Alcotest.test_case "read_shared matches read" `Quick test_dev_read_shared_matches_read
        :: qcheck [ prop_flush_then_crash_preserves_all; prop_blockdev_satisfies_axioms ] );
      ( "media",
        Alcotest.test_case "copy is O(chunks)" `Quick test_media_copy_is_o_chunks
        :: qcheck [ prop_media_matches_deep_copy_model ] );
      ( "buffer_head",
        Alcotest.test_case "valid combinations" `Quick test_bh_valid_combinations
        :: Alcotest.test_case "invalid combinations" `Quick test_bh_invalid_combinations
        :: Alcotest.test_case "sixteen flags" `Quick test_bh_sixteen_flags
        :: Alcotest.test_case "flag set ops" `Quick test_bh_flag_set_ops
        :: Alcotest.test_case "cache lifecycle" `Quick test_bh_cache_lifecycle
        :: Alcotest.test_case "invalid transition caught" `Quick
             test_bh_mark_dirty_on_stale_buffer_caught
        :: Alcotest.test_case "checks can be disabled" `Quick test_bh_checks_can_be_disabled
        :: Alcotest.test_case "refcount and drop" `Quick test_bh_refcount_and_drop
        :: Alcotest.test_case "clean submit no-op" `Quick test_bh_submit_clean_is_noop
        :: qcheck [ prop_random_flagsets_validate_consistently ] );
      ( "journal",
        Alcotest.test_case "commit/checkpoint/read" `Quick test_journal_commit_checkpoint_read
        :: Alcotest.test_case "rejects journal-area writes" `Quick
             test_journal_tx_rejects_journal_area
        :: Alcotest.test_case "recovery replays committed" `Quick
             test_journal_recovery_replays_committed
        :: Alcotest.test_case "recovery ignores uncommitted" `Quick
             test_journal_recovery_ignores_uncommitted
        :: Alcotest.test_case "recovery idempotent" `Quick test_journal_recovery_idempotent
        :: Alcotest.test_case "coalesces same block" `Quick test_journal_coalesces_same_block
        :: Alcotest.test_case "auto checkpoint when full" `Quick
             test_journal_auto_checkpoint_on_full
        :: Alcotest.test_case "oversized tx rejected" `Quick test_journal_oversized_tx_rejected
        :: qcheck [ prop_journal_crash_recovery_consistent ] );
      ( "resilience",
        [
          Alcotest.test_case "flaky read eio deterministic" `Quick
            test_flaky_read_eio_deterministic;
          Alcotest.test_case "flaky torn write" `Quick test_flaky_torn_write;
          Alcotest.test_case "flaky availability window" `Quick test_flaky_availability_window;
          Alcotest.test_case "fua compat shim propagates flush errors" `Quick
            test_fua_compat_propagates_flush_error;
          Alcotest.test_case "resilient recovers transient" `Quick
            test_resilient_recovers_transient;
          Alcotest.test_case "resilient permanent verdict" `Quick
            test_resilient_permanent_verdict;
          Alcotest.test_case "resilient nontransient immediate" `Quick
            test_resilient_nontransient_immediate;
          Alcotest.test_case "resilient seeded jitter" `Quick test_resilient_seeded_jitter;
          Alcotest.test_case "resilient trace text" `Quick test_resilient_trace_text;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "microreboot and stale client" `Quick
            test_supervised_microreboot_and_stale_client;
        ] );
    ]
