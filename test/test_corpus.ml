(* Table-driven regression corpus: runs every corpus/*.mc file and checks
   its EXPECT annotations (see corpus/README.md). *)

type expectation =
  | Count of string * int            (* checker, exact report count *)
  | Source of string * int           (* checker, report source line *)
  | Confirmed of string              (* checker, >=1 dynamically confirmed *)
  | Leaks of int                     (* memory-leak report count *)

let parse_expectations src =
  let lines = String.split_on_char '\n' src in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      let parse_tail prefix =
        if String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
        then
          Some
            (String.split_on_char ' '
               (String.trim
                  (String.sub line (String.length prefix)
                     (String.length line - String.length prefix))))
        else None
      in
      match parse_tail "// EXPECT-LEAKS " with
      | Some [ n ] -> Some (Leaks (int_of_string n))
      | Some _ -> failwith ("bad EXPECT-LEAKS line: " ^ line)
      | None ->
      match parse_tail "// EXPECT-SOURCE " with
      | Some [ checker; n ] -> Some (Source (checker, int_of_string n))
      | Some _ -> failwith ("bad EXPECT-SOURCE line: " ^ line)
      | None -> (
        match parse_tail "// EXPECT-CONFIRMED " with
        | Some [ checker ] -> Some (Confirmed checker)
        | Some _ -> failwith ("bad EXPECT-CONFIRMED line: " ^ line)
        | None -> (
          match parse_tail "// EXPECT " with
          | Some [ checker; n ] -> Some (Count (checker, int_of_string n))
          | Some _ -> failwith ("bad EXPECT line: " ^ line)
          | None -> None)))
    lines

let corpus_dir () =
  (* dune runs tests in _build/default/test; the corpus is a source dir *)
  let candidates = [ "../corpus"; "corpus"; "../../corpus"; "../../../corpus" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.fail "corpus directory not found"

let run_file path () =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let expectations = parse_expectations src in
  Alcotest.(check bool) "file has expectations" true (expectations <> []);
  let analysis = Pinpoint.Analysis.prepare_source ~file:path src in
  let results : (string, Pinpoint.Report.t list) Hashtbl.t = Hashtbl.create 8 in
  let reports_for checker =
    match Hashtbl.find_opt results checker with
    | Some r -> r
    | None ->
      let spec =
        match Pinpoint.Checkers.by_name checker with
        | Some s -> s
        | None -> Alcotest.failf "unknown checker %s in %s" checker path
      in
      let reports, _ = Pinpoint.Analysis.check analysis spec in
      let r = List.filter Pinpoint.Report.is_reported reports in
      Hashtbl.add results checker r;
      r
  in
  List.iter
    (fun expectation ->
      match expectation with
      | Count (checker, n) ->
        (* count distinct source sites, like the bench tables *)
        let sources =
          List.sort_uniq compare
            (List.map
               (fun (r : Pinpoint.Report.t) ->
                 r.source_loc.Pinpoint_ir.Stmt.line)
               (reports_for checker))
        in
        Alcotest.(check int)
          (Printf.sprintf "%s: %s count" (Filename.basename path) checker)
          n (List.length sources)
      | Source (checker, line) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s source at line %d" (Filename.basename path)
             checker line)
          true
          (List.exists
             (fun (r : Pinpoint.Report.t) ->
               r.source_loc.Pinpoint_ir.Stmt.line = line)
             (reports_for checker))
      | Confirmed checker ->
        let statuses =
          Pinpoint.Confirm.confirm_all analysis.Pinpoint.Analysis.prog
            (reports_for checker)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s confirmed" (Filename.basename path) checker)
          true
          (List.exists (fun (_, s) -> s = `Confirmed) statuses)
      | Leaks n ->
        let leaks =
          Pinpoint.Leak.check analysis.Pinpoint.Analysis.prog
            ~seg_of:(Pinpoint.Analysis.seg_of analysis)
            ~rv:analysis.Pinpoint.Analysis.rv
        in
        Alcotest.(check int)
          (Printf.sprintf "%s: leak count" (Filename.basename path))
          n (List.length leaks))
    expectations

let suite =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (fun f ->
         Alcotest.test_case f `Quick (run_file (Filename.concat dir f)))
