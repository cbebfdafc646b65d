(* Tests for the disk-resident artifact store (DESIGN.md §4.14): flat
   arena round-trips, formula/row interning, blob seal + torn-write
   recovery, spills and LRU eviction, dedup determinism, and the server's
   store-backed incremental mode. *)

module Arena = Pinpoint_store.Arena
module Blob = Pinpoint_store.Blob
module Resident = Pinpoint_store.Resident
module Store = Pinpoint_store.Store
module Seg = Pinpoint_seg.Seg
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf
module E = Pinpoint_smt.Expr
module Gen = Pinpoint_workload.Gen
module Incr = Pinpoint_server.Incr

let with_tmp_dir f = Helpers.with_temp_dir "pinpoint_store_test_" f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_files () =
  let dir = Test_corpus.corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* ---------- arenas ---------- *)

let test_arena_roundtrip () =
  let ints =
    [ 0; 1; -1; 63; 64; -64; -65; 1 lsl 20; -(1 lsl 20); max_int; min_int ]
  in
  let a = Arena.create () in
  List.iter (Arena.push a) ints;
  Arena.push_str a "";
  Arena.push_str a "hello";
  Arena.push_str a "hello" (* interned: same pool id *);
  Arena.push_list a (Arena.push a) [ 7; -7; 42 ];
  let c = Arena.of_bytes (Arena.to_bytes a) in
  List.iter
    (fun expect -> Alcotest.(check int) "int round-trip" expect (Arena.read c))
    ints;
  Alcotest.(check string) "empty string" "" (Arena.read_str c);
  Alcotest.(check string) "string" "hello" (Arena.read_str c);
  Alcotest.(check string) "interned string" "hello" (Arena.read_str c);
  Alcotest.(check (list int)) "list" [ 7; -7; 42 ] (Arena.read_list c Arena.read);
  Alcotest.(check bool) "cursor drained" true (Arena.at_end c)

let test_varint_extremes () =
  (* zigzag + varint must be a bijection over the full int range *)
  List.iter
    (fun n ->
      let a = Arena.create () in
      Arena.push a n;
      let c = Arena.of_bytes (Arena.to_bytes a) in
      Alcotest.(check int) (Printf.sprintf "varint %d" n) n (Arena.read c))
    [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

(* ---------- LRU ---------- *)

let test_lru () =
  let l : int Resident.t = Resident.create ~cap:2 in
  Alcotest.(check (list (pair string int))) "no eviction" [] (Resident.put l "a" 1);
  Alcotest.(check (list (pair string int))) "no eviction" [] (Resident.put l "b" 2);
  ignore (Resident.find l "a") (* touch: b becomes LRU *);
  Alcotest.(check (list (pair string int)))
    "evicts LRU" [ ("b", 2) ] (Resident.put l "c" 3);
  Alcotest.(check bool) "a resident" true (Resident.mem l "a");
  Alcotest.(check bool) "b gone" false (Resident.mem l "b");
  Alcotest.(check int) "len" 2 (Resident.length l)

(* ---------- codec round-trips over the corpus ---------- *)

(* Spill every function's SEG / RV into a fresh store, drop the
   resident copies, fault everything back and compare against the
   original objects.  Variables and formulas must come back physically
   identical (the decode path re-interns through the same hash-cons
   tables), so deep equality on the public structure is exact. *)
let check_seg_equal name (orig : Seg.t) (dec : Seg.t) =
  let adj fold seg =
    fold seg ~init:[] ~f:(fun acc v es -> (v, es) :: acc)
  in
  (* The load table: the same sids in order, each entry's value the same
     variable or constant and its condition the same formula node. *)
  let same_entry (a : Pinpoint_pta.Pta.entry) (b : Pinpoint_pta.Pta.entry) =
    (match (a.Pinpoint_pta.Pta.value, b.Pinpoint_pta.Pta.value) with
    | Pinpoint_ir.Stmt.Ovar u, Pinpoint_ir.Stmt.Ovar v -> u == v
    | x, y -> x = y)
    && a.Pinpoint_pta.Pta.cond == b.Pinpoint_pta.Pta.cond
    && a.Pinpoint_pta.Pta.store_sid = b.Pinpoint_pta.Pta.store_sid
  in
  Alcotest.(check bool)
    (name ^ ": load table identical") true
    (List.equal
       (fun (s, es) (s', es') -> s = s' && List.equal same_entry es es')
       (Seg.loads orig) (Seg.loads dec));
  Alcotest.(check bool)
    (name ^ ": succs identical") true
    (adj Seg.fold_succs orig = adj Seg.fold_succs dec);
  Alcotest.(check bool)
    (name ^ ": preds identical") true
    (adj Seg.fold_preds orig = adj Seg.fold_preds dec);
  Alcotest.(check bool)
    (name ^ ": uses identical") true
    (Seg.uses orig = Seg.uses dec);
  Alcotest.(check int)
    (name ^ ": vertices") (Seg.n_vertices orig) (Seg.n_vertices dec);
  Alcotest.(check int) (name ^ ": edges") (Seg.n_edges orig) (Seg.n_edges dec)

let test_artifact_roundtrip () =
  let with_loads = ref 0 in
  List.iter
    (fun path ->
      let a = Pinpoint.Analysis.prepare_source ~file:path (read_file path) in
      with_tmp_dir @@ fun dir ->
      let st = Store.create ~dir ~max_resident:4 () in
      Store.register_program st a.Pinpoint.Analysis.prog;
      let segs =
        List.filter_map
          (fun (f : Pinpoint_ir.Func.t) ->
            let fname = f.Pinpoint_ir.Func.fname in
            Option.map (fun seg -> (fname, seg)) (Pinpoint.Analysis.seg_of a fname))
          (Pinpoint_ir.Prog.functions a.Pinpoint.Analysis.prog)
      in
      List.iter (fun (fname, seg) -> Store.put_seg st fname seg) segs;
      List.iter
        (fun (f : Pinpoint_ir.Func.t) ->
          let fname = f.Pinpoint_ir.Func.fname in
          match Rv.find a.Pinpoint.Analysis.rv fname with
          | Some entries -> Store.put_rv st fname entries
          | None -> ())
        (Pinpoint_ir.Prog.functions a.Pinpoint.Analysis.prog);
      Store.drop_resident st;
      let base = Filename.basename path in
      List.iter
        (fun (fname, orig) ->
          match Store.seg_of st fname with
          | None -> Alcotest.failf "%s: %s SEG missing" base fname
          | Some dec -> check_seg_equal (base ^ ": " ^ fname) orig dec)
        segs;
      List.iter
        (fun (_, seg) -> if Seg.loads seg <> [] then incr with_loads)
        segs;
      Store.drop_resident st;
      List.iter
        (fun (f : Pinpoint_ir.Func.t) ->
          let fname = f.Pinpoint_ir.Func.fname in
          match Rv.find a.Pinpoint.Analysis.rv fname with
          | None -> ()
          | Some entries ->
            let dec =
              match Store.rv_of st fname with
              | Some d -> d
              | None -> Alcotest.failf "%s: %s RV missing" base fname
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s RV identical" base fname)
              true (entries = dec))
        (Pinpoint_ir.Prog.functions a.Pinpoint.Analysis.prog);
      Store.close st)
    (corpus_files ());
  Alcotest.(check bool) "some SEG has a load row" true (!with_loads > 0)

let test_vf_roundtrip () =
  let path = List.hd (corpus_files ()) in
  let a = Pinpoint.Analysis.prepare_source ~file:path (read_file path) in
  let spec = List.hd Pinpoint.Checkers.all in
  let _, vf =
    Hashtbl.find a.Pinpoint.Analysis.vfs spec.Pinpoint.Checker_spec.name
  in
  with_tmp_dir @@ fun dir ->
  let st = Store.create ~dir () in
  Store.register_program st a.Pinpoint.Analysis.prog;
  Store.put_vf st "c" vf;
  Store.drop_resident st;
  let dec =
    match Store.vf_of st "c" with
    | Some d -> d
    | None -> Alcotest.fail "VF missing"
  in
  let dump vf =
    Vf.fold vf ~init:[] ~f:(fun acc name s -> (name, s) :: acc)
    |> List.sort compare
  in
  Alcotest.(check bool) "VF identical" true (dump vf = dump dec);
  Store.close st

(* ---------- blob seal / reopen / torn-write recovery ---------- *)

let test_blob_reopen () =
  with_tmp_dir @@ fun dir ->
  let st = Store.create ~dir () in
  Store.put_vf st "t" (Vf.empty ());
  Store.seal st;
  Alcotest.(check bool) "sealed" true (Store.is_sealed st);
  (match Store.reopen ~dir with
  | None -> Alcotest.fail "reopen failed on a sealed store"
  | Some r ->
    Alcotest.(check int) "epoch 1" 1 r.Store.epoch;
    Alcotest.(check bool)
      "artifact listed" true
      (List.mem_assoc "v/t" r.Store.artifacts);
    let off, len = List.assoc "v/t" r.Store.artifacts in
    Alcotest.(check int) "readable" len (Bytes.length (r.Store.read ~off ~len));
    r.Store.finish ());
  Store.close st;
  (* A torn later epoch (truncated mid-write, no valid trailer) must be
     skipped in favour of the older sealed one. *)
  let torn = Filename.concat dir "store.ep000002.bin" in
  let oc = open_out_bin torn in
  output_string oc "PNPSTOR1 torn garbage";
  close_out oc;
  (match Store.reopen ~dir with
  | None -> Alcotest.fail "reopen failed with a torn newest epoch"
  | Some r ->
    Alcotest.(check int) "fell back to epoch 1" 1 r.Store.epoch;
    r.Store.finish ());
  (* Nothing valid at all -> None. *)
  with_tmp_dir @@ fun empty ->
  Alcotest.(check bool) "no epochs" true (Store.reopen ~dir:empty = None)

(* ---------- spills and eviction ---------- *)

let gen_source ~seed ~loc =
  (Gen.generate ~name:"store-sub"
     { Gen.default_params with Gen.seed; target_loc = loc; cross_unit = true })
    .Gen.source

(* Preparing and sealing spills at every residency, a one-function LRU
   evicts, and the sealed epoch lists SEGs, RV entries and VF tables only:
   no points-to result was ever stored.  That reports do not depend on the
   store is the lattice's (test_lattice.ml). *)
let test_eviction () =
  let src = gen_source ~seed:21 ~loc:500 in
  List.iter
    (fun max_resident ->
      with_tmp_dir @@ fun dir ->
      let st = Store.create ~dir ~max_resident () in
      let a = Pinpoint.Analysis.prepare_source ~store:st src in
      Pinpoint.Analysis.seal_store a Pinpoint.Checkers.all;
      let stats = Store.stats st in
      Alcotest.(check bool)
        "store actually spilled" true
        (stats.Store.spills > 0);
      if max_resident = 1 then begin
        Alcotest.(check bool)
          "tiny LRU actually evicted" true
          (stats.Store.evictions > 0);
        match Store.reopen ~dir with
        | None -> Alcotest.fail "reopen failed on a sealed store"
        | Some r ->
          let kinds =
            List.sort_uniq compare
              (List.map (fun (name, _) -> String.sub name 0 2) r.Store.artifacts)
          in
          r.Store.finish ();
          Alcotest.(check (list string))
            "artifact kinds" [ "r/"; "s/"; "v/" ] kinds
      end;
      Store.close st)
    [ 1; 4 ]

(* ---------- stores sharing a directory ---------- *)

(* Two stores on one directory, the second made after the first has
   spilled: each writes a file of its own, so each reads back its own
   artifacts, before sealing and after, and the two seals make two
   epochs. *)
let test_shared_dir () =
  let renders a =
    List.concat_map
      (fun spec -> Helpers.render_reports (fst (Pinpoint.Analysis.check a spec)))
      Pinpoint.Checkers.all
  in
  let sources =
    List.map
      (fun f -> read_file (Filename.concat (Test_corpus.corpus_dir ()) f))
      [ "motivating.mc"; "double_free.mc" ]
  in
  let expected =
    List.map (fun src -> renders (Pinpoint.Analysis.prepare_source src)) sources
  in
  with_tmp_dir @@ fun dir ->
  let stored =
    List.map
      (fun src ->
        let st = Store.create ~dir ~max_resident:1 () in
        (st, Pinpoint.Analysis.prepare_source ~store:st src))
      sources
  in
  let check what =
    Alcotest.(check (list (list string)))
      (what ^ ": each store's reports") expected
      (List.map (fun (_, a) -> renders a) stored)
  in
  check "unsealed";
  List.iter (fun (_, a) -> Pinpoint.Analysis.seal_store a Pinpoint.Checkers.all) stored;
  check "sealed";
  List.iter (fun (st, _) -> Store.close st) stored;
  Alcotest.(check (list string))
    "two epochs, no temp file"
    [ "store.ep000001.bin"; "store.ep000002.bin" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* ---------- dedup determinism ---------- *)

let test_dedup_determinism () =
  let src = gen_source ~seed:22 ~loc:400 in
  let run () =
    with_tmp_dir @@ fun dir ->
    let st = Store.create ~dir () in
    let a = Pinpoint.Analysis.prepare_source ~store:st src in
    ignore (Pinpoint.Analysis.seg_size a);
    let s = Store.stats st in
    Store.close st;
    (s.Store.spills, s.Store.row, s.Store.expr_hits, s.Store.expr_misses, s.Store.file_bytes)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two runs, same stats and bytes" true (a = b);
  let _, row, _, _, _ = a in
  Alcotest.(check bool) "rows actually dedup" true (row.Pinpoint_store.Intern.hits > 0)

(* ---------- store-mode prepare matches store-off structure ---------- *)

let test_seg_size_store_mode () =
  let src = gen_source ~seed:23 ~loc:300 in
  let off = Pinpoint.Analysis.seg_size (Pinpoint.Analysis.prepare_source src) in
  with_tmp_dir @@ fun dir ->
  let st = Store.create ~dir () in
  let a = Pinpoint.Analysis.prepare_source ~store:st src in
  Alcotest.(check (pair int int)) "seg_size identical" off
    (Pinpoint.Analysis.seg_size a);
  Store.close st

(* ---------- the sweep reads no SEG back ---------- *)

(* Preparation builds each function's SEG, RV and VF summaries in one
   bottom-up sweep, spilling the SEGs only after summarising them: even at
   max_resident 1 it decodes no SEG.  Every VF table exists by then, so
   sealing faults nothing.  Sources come from the IR: a checker whose
   sources occur nowhere faults nothing either. *)
let test_sweep_faults () =
  let src =
    (Gen.generate ~name:"store-sub"
       {
         Gen.default_params with
         Gen.seed = 25;
         target_loc = 400;
         n_taint_real = 0;
         n_taint_traps = 0;
       })
      .Gen.source
  in
  Alcotest.(check bool)
    "subject has no data-transmission source" false
    (Test_resilience.contains src "getpass");
  with_tmp_dir @@ fun dir ->
  let st = Store.create ~dir ~max_resident:1 () in
  let a = Pinpoint.Analysis.prepare_source ~store:st src in
  Alcotest.(check int) "preparation decodes no SEG" 0
    (Store.stats st).Store.seg_faults;
  let faults () = (Store.stats st).Store.faults in
  let f0 = faults () in
  Pinpoint.Analysis.seal_store a Pinpoint.Checkers.all;
  Alcotest.(check int) "sealing faults nothing" 0 (faults () - f0);
  let f1 = faults () in
  let _, stats = Pinpoint.Analysis.check a Pinpoint.Checkers.data_transmission in
  Alcotest.(check int) "no sources" 0
    (Pinpoint_obs.Obs.Snapshot.counter stats "engine.n_sources");
  Alcotest.(check int) "no-source check faults nothing" 0 (faults () - f1);
  Store.close st

(* ---------- server incremental mode on a store ---------- *)

let test_server_store_incremental () =
  let src = gen_source ~seed:24 ~loc:400 in
  (* Same-shaped edit both sides: append a fresh function to the file. *)
  let edit src =
    src ^ "\nvoid store_edit_probe(int s) {\n  int *p = malloc();\n  *p = s;\n  print(*p);\n  free(p);\n}\n"
  in
  let run store =
    let st = Incr.load ?store [ ("sub.mc", src) ] in
    let r0 =
      List.map
        (fun spec ->
          List.map Pinpoint.Report.one_line
            (List.filter Pinpoint.Report.is_reported
               (fst (Incr.check st spec))))
        Pinpoint.Checkers.all
    in
    let stats = Incr.update st [ ("sub.mc", edit src) ] in
    let r1 =
      List.map
        (fun spec ->
          List.map Pinpoint.Report.one_line
            (List.filter Pinpoint.Report.is_reported
               (fst (Incr.check st spec))))
        Pinpoint.Checkers.all
    in
    (r0, r1, stats.Incr.full_rebuild)
  in
  let r0_off, r1_off, _ = run None in
  with_tmp_dir @@ fun dir ->
  let store = Store.create ~dir ~max_resident:4 () in
  let r0_on, r1_on, _ = run (Some store) in
  Alcotest.(check bool) "initial reports identical" true (r0_off = r0_on);
  Alcotest.(check bool) "post-update reports identical" true (r1_off = r1_on);
  Alcotest.(check bool)
    "store spilled during serve" true
    ((Store.stats store).Store.spills > 0);
  Store.close store

(* ---------- the memory store ---------- *)

(* Every function's SEG and RV entries live in a store.  With none
   given, it is a memory store: after preparing and checking, in batch
   and served after an edit, nothing was encoded, faulted back, evicted
   or written.  [seg_size] sums the SEGs [seg_of] returns. *)
let test_memory_store () =
  let memory what check (a : Pinpoint.Analysis.t) =
    List.iter (fun spec -> ignore (check spec)) Pinpoint.Checkers.all;
    let s = Store.stats a.Pinpoint.Analysis.store in
    Alcotest.(check (list int))
      (what ^ ": spills, faults, evictions, file bytes")
      [ 0; 0; 0; 0 ]
      [ s.Store.spills; s.Store.faults; s.Store.evictions; s.Store.file_bytes ];
    let sum =
      List.fold_left
        (fun (v, e) (f : Pinpoint_ir.Func.t) ->
          match Pinpoint.Analysis.seg_of a f.Pinpoint_ir.Func.fname with
          | Some seg -> (v + Seg.n_vertices seg, e + Seg.n_edges seg)
          | None -> (v, e))
        (0, 0)
        (Pinpoint_ir.Prog.functions a.Pinpoint.Analysis.prog)
    in
    Alcotest.(check bool) (what ^ ": some SEG") true (fst sum > 0);
    Alcotest.(check (pair int int))
      (what ^ ": seg_size = sum over seg_of")
      sum
      (Pinpoint.Analysis.seg_size a)
  in
  let chunks = Helpers.split_subject 1 (gen_source ~seed:26 ~loc:400) in
  let a = Pinpoint.Analysis.prepare_source (snd (List.hd (Helpers.contents_of chunks))) in
  memory "batch" (Pinpoint.Analysis.check a) a;
  let st = Incr.load (Helpers.contents_of chunks) in
  List.iter (fun spec -> ignore (Incr.check st spec)) Pinpoint.Checkers.all;
  Alcotest.(check bool) "an edit" true
    (Helpers.bump_nth_function chunks ~chunk:0 ~i:3);
  let stats = Incr.update st (Helpers.contents_of chunks) in
  Alcotest.(check bool) "incremental" false stats.Incr.full_rebuild;
  Alcotest.(check bool) "something redone" true (stats.Incr.dirty_cone > 0);
  memory "served" (Incr.check st) (Incr.analysis st)

let suite =
  [
    Alcotest.test_case "arena round-trip" `Quick test_arena_roundtrip;
    Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
    Alcotest.test_case "resident LRU" `Quick test_lru;
    Alcotest.test_case "artifact round-trip (corpus)" `Quick
      test_artifact_roundtrip;
    Alcotest.test_case "VF round-trip" `Quick test_vf_roundtrip;
    Alcotest.test_case "blob seal / reopen / torn write" `Quick
      test_blob_reopen;
    Alcotest.test_case "spills and eviction" `Quick test_eviction;
    Alcotest.test_case "two stores share a directory" `Quick test_shared_dir;
    Alcotest.test_case "dedup determinism" `Quick test_dedup_determinism;
    Alcotest.test_case "seg_size in store mode" `Quick
      test_seg_size_store_mode;
    Alcotest.test_case "sweep decodes no SEG" `Quick test_sweep_faults;
    Alcotest.test_case "server incremental on store" `Quick
      test_server_store_incremental;
    Alcotest.test_case "memory store" `Quick test_memory_store;
  ]
