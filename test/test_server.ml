(* Tests for the analysis server (DESIGN.md §4.13): incremental
   re-analysis identity against batch runs, fault-injected soak,
   deadline isolation, warm restart from epoch snapshots, and the
   incident-log cap the server relies on. *)

module Ast = Pinpoint_frontend.Ast
module Resilience = Pinpoint_util.Resilience
module Json = Pinpoint_server.Json
module Incr = Pinpoint_server.Incr
module Server = Pinpoint_server.Server
module Prog = Pinpoint_ir.Prog
module Callgraph = Pinpoint_ir.Callgraph

(* ---------- batch vs server ---------- *)

let server_renders st spec = Helpers.render_reports (fst (Incr.check st spec))

let checkers_under_test =
  [ Pinpoint.Checkers.use_after_free; Pinpoint.Checkers.double_free ]

(* The dirty cone stays a cone: editing a leaf function must not rebuild
   the whole program. *)
let test_cone_is_partial () =
  let chunks = Helpers.split_subject 2 (Helpers.subject ~seed:31 ~loc:400 ()) in
  let st = Incr.load (Helpers.contents_of chunks) in
  let total = Incr.n_functions st in
  ignore (Helpers.bump_nth_function chunks ~chunk:0 ~i:1);
  let name, fds = chunks.(0) in
  let stats = Incr.update st [ (name, Helpers.emit_fdecls fds) ] in
  Alcotest.(check bool) "not a full rebuild" false stats.Incr.full_rebuild;
  Alcotest.(check bool)
    (Printf.sprintf "cone %d < total %d" stats.Incr.dirty_cone total)
    true
    (stats.Incr.dirty_cone < total)

(* An edit costs its dirty cone, not the program: the same one-literal
   edit of a leaf allocates within 2x on a program with 10x the
   functions.  Allocation, not wall time, so the test is deterministic.
   Files of ten tiny functions, each calling the one before it in its
   file; the edited literal feeds nothing, so the cone is the leaf. *)
let tiny_file ~leaf file =
  let fn k =
    let i = (file * 10) + k in
    if k = 0 then Printf.sprintf "void t%d(int a) { int x = %d; print(a); }" i leaf
    else Printf.sprintf "void t%d(int a) { int x = %d; t%d(a); }" i k (i - 1)
  in
  (Printf.sprintf "tiny_%03d.mc" file, String.concat "\n" (List.init 10 fn))

let leaf_edit_words n =
  let st = Incr.load (List.init (n / 10) (tiny_file ~leaf:7)) in
  let flip leaf =
    let w = Gc.minor_words () in
    let stats = Incr.update st [ tiny_file ~leaf 0 ] in
    let words = Gc.minor_words () -. w in
    Alcotest.(check (pair bool int))
      (Printf.sprintf "%d functions: incremental, cone 1" n)
      (false, 1)
      (stats.Incr.full_rebuild, stats.Incr.dirty_cone);
    words
  in
  ignore (flip 8);
  flip 9

let test_edit_cost_is_the_cone () =
  let small = leaf_edit_words 100 and large = leaf_edit_words 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words at 1000 functions <= 2 x %.0f at 100" large
       small)
    true
    (large <= 2.0 *. small)

(* Per-edit memory: flip one literal back and forth 40 times, checking
   with every checker after each edit.  Symbols are never freed (a
   re-lowered function is a new generation with new symbols, and each
   re-run search mints its clones), but their number grows by the same
   amount on every edit; every resident table, each memo and its
   footprint index are the same size after the soak as after the first
   cycle. *)
let test_edit_soak () =
  let chunks = Helpers.split_subject 4 (Helpers.subject ~seed:23 ~loc:600 ()) in
  let st = Incr.load (Helpers.contents_of chunks) in
  let name, original = chunks.(1) in
  let i =
    Option.get
      (List.find_opt
         (fun i -> Helpers.bump_nth_function (Array.copy chunks) ~chunk:1 ~i)
         (List.init (List.length original) Fun.id))
  in
  ignore (Helpers.bump_nth_function chunks ~chunk:1 ~i);
  let bumped = snd chunks.(1) in
  let check_all () =
    List.iter (fun spec -> ignore (Incr.check st spec)) Pinpoint.Checkers.all
  in
  check_all ();
  let growth = ref [] and after_cycle = ref [] in
  for k = 1 to 40 do
    let fds = if k mod 2 = 1 then bumped else original in
    let before = Pinpoint_smt.Symbol.count () in
    let stats = Incr.update st [ (name, Helpers.emit_fdecls fds) ] in
    Alcotest.(check bool) "incremental" false stats.Incr.full_rebuild;
    check_all ();
    growth := (Pinpoint_smt.Symbol.count () - before) :: !growth;
    if k = 2 then after_cycle := Incr.table_sizes st
  done;
  let per_edit = List.hd !growth in
  Alcotest.(check (list int))
    (Printf.sprintf "registry grows by %d symbols on every edit" per_edit)
    (List.init 40 (fun _ -> per_edit))
    !growth;
  Alcotest.(check (list (pair string int)))
    "resident tables, memos and index after 40 edits = after the first cycle"
    !after_cycle (Incr.table_sizes st)

(* Do not alias: an edit re-lowers [f] at its ordinal as a new
   generation, so the edited body's variables are new symbols, and so are
   their clones.  Two things would go wrong if it reused the old ids:
   - a summary the cutoff keeps mentions a callee's variables through
     clones tagged by the call site (an RV frame tag such as [f_s1]); the
     old and the new clone of [x] would be one variable, and the query
     below — the retained clone at one value, the edited body's at
     another — unsatisfiable;
   - the edited body's variables and clones would share the formula
     nodes interned for the old body's, whose structural ranks hash the
     old names, so the path condition would come out in another
     canonical order, one where the refinement (DESIGN.md §4.17) no
     longer removes the nonlinear trap that a fresh analysis removes. *)
let test_edit_never_aliases () =
  let module E = Pinpoint_smt.Expr in
  let module Func = Pinpoint_ir.Func in
  let before =
    {|void f(int *p, int x) {
  int *q = malloc();
  *q = x;
  free(q);
  print(*q);
}
|}
  and trap =
    {|void f(int *p, int x) {
  int y = x * x;
  bool neg = y < 0;
  if (neg) { free(p); }
  print(*p);
}
|}
  in
  let uaf = Pinpoint.Checkers.use_after_free in
  let st = Incr.load [ ("a.mc", before) ] in
  Alcotest.(check int) "before: one use-after-free" 1
    (List.length (server_renders st uaf));
  let f () = Option.get (Prog.find (Incr.program st) "f") in
  let clone_of_x (f : Func.t) =
    Pinpoint_summary.Clone.subst_var
      (Pinpoint_summary.Clone.create "f_s1")
      (List.nth f.Func.params 1)
  in
  let was = f () in
  let retained = E.eq (clone_of_x was) (E.int 1) in
  let stats = Incr.update st [ ("a.mc", trap) ] in
  Alcotest.(check (pair bool int))
    "f re-lowered, incrementally" (false, 1)
    (stats.Incr.full_rebuild, stats.Incr.retransformed);
  let now = f () in
  Alcotest.(check (pair int int))
    "same ordinal, next generation"
    (was.Func.ordinal, Func.generation was + 1)
    (now.Func.ordinal, Func.generation now);
  Alcotest.(check bool)
    "a retained clone and the edited body's are distinct variables" true
    (Pinpoint_smt.Solver.check
       (E.and_ retained (E.eq (clone_of_x now) (E.int 2)))
    = Pinpoint_smt.Solver.Sat);
  Alcotest.(check int) "after: the refinement removes the trap" 0
    (List.length (server_renders st uaf))

(* ---------- resident per-source results ---------- *)

(* A hand-written subject for the memo's footprint rules.  [bound] is the
   constant edit (a) flips; [h_body] is the body edit (b) replaces. *)
let memo_subject ~bound ~h_body =
  Printf.sprintf
    {|void rel(int *p) { free(p); }

void g(int s) {
  int *p = malloc();
  *p = s;
  rel(p);
  int *q = malloc();
  free(q);
  if (s > 5) {
    if (s < %d) { print(*p); print(*q); }
  }
}

int *mk(int s) {
  int *p = malloc();
  *p = s;
  free(p);
  return p;
}

void h(int s) { %s }
|}
    bound h_body

(* Two edits no stored search may survive:
   (a) the caller [g] is edited (a constant flip makes its guarded uses
       feasible).  [rel]'s freed value flows up into [g]; [g]'s own source
       keeps its statement and variable ids (the flip adds none), and its
       search read only [g]'s SEG, so only the SEG footprint drops it;
   (b) [h] newly calls [mk], so the empty-stack return expansion from
       [mk]'s source reaches a new caller.  [mk] is untouched and its
       search never read [h]'s SEG: only the caller-list footprint drops
       it.
   After each edit the server must report what batch reports; a plain
   re-check replays every source. *)
let test_memo_footprint () =
  let v0 = memo_subject ~bound:3 ~h_body:"print(s);" in
  let v1 = memo_subject ~bound:30 ~h_body:"print(s);" in
  let v2 = memo_subject ~bound:30 ~h_body:"int *r = mk(s); print(*r);" in
  let st = Incr.load [ ("memo.mc", v0) ] in
  let same step src n_uaf =
    List.iter
      (fun (spec : Pinpoint.Checker_spec.t) ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s: %s server = batch" step
             spec.Pinpoint.Checker_spec.name)
          (Helpers.batch_renders [ ("memo.mc", src) ] spec)
          (server_renders st spec))
      checkers_under_test;
    Alcotest.(check int)
      (step ^ ": use-after-free reports")
      n_uaf
      (List.length (server_renders st Pinpoint.Checkers.use_after_free))
  in
  same "load" v0 0;
  List.iter
    (fun (spec : Pinpoint.Checker_spec.t) ->
      let _, stats = Incr.check st spec in
      let n = Pinpoint_obs.Obs.Snapshot.counter stats in
      Alcotest.(check int)
        (spec.Pinpoint.Checker_spec.name ^ ": re-check reuses every source")
        (n "engine.n_sources") (n "engine.n_reused_sources"))
    checkers_under_test;
  let edit step src =
    let stats = Incr.update st [ ("memo.mc", src) ] in
    Alcotest.(check bool) (step ^ " is incremental") false stats.Incr.full_rebuild
  in
  edit "edit (a)" v1;
  same "edit (a)" v1 2;
  edit "edit (b)" v2;
  same "edit (b)" v2 3

(* ---------- early cutoff ---------- *)

(* The resident call graph after an update equals a from-scratch build on
   the spliced program: the SCC order of [Prog.bottom_up_sccs], and every
   function's call sites in the order a statement scan produces them —
   callers in reverse definition order, each caller's calls in reverse
   statement order.  Call statements keep their sids through the
   connector transform, so (caller, sid) pairs identify them. *)
let check_graph what st files =
  let prog = Helpers.compile_files files in
  let names =
    List.map (List.map (fun (f : Pinpoint_ir.Func.t) -> f.Pinpoint_ir.Func.fname))
  in
  let g = Incr.graph st in
  Alcotest.(check (list (list string)))
    (what ^ ": resident SCCs = from scratch")
    (names (Prog.bottom_up_sccs prog))
    (names (Callgraph.sccs g));
  (* the graph holds the resident functions themselves, re-lowered ones
     included *)
  let resident (f : Pinpoint_ir.Func.t) =
    match Prog.find (Incr.program st) f.Pinpoint_ir.Func.fname with
    | Some r -> r == f
    | None -> false
  in
  Alcotest.(check bool)
    (what ^ ": graph nodes are the resident functions")
    true
    (List.for_all (List.for_all resident) (Callgraph.sccs g)
    && List.for_all
         (fun (f : Pinpoint_ir.Func.t) ->
           List.for_all
             (fun (c, _) -> resident c)
             (Callgraph.callers g f.Pinpoint_ir.Func.fname))
         (Prog.functions (Incr.program st)));
  let scanned = Hashtbl.create 64 in
  List.iter
    (fun (f : Pinpoint_ir.Func.t) ->
      Pinpoint_ir.Func.iter_stmts f (fun _ s ->
          match s.Pinpoint_ir.Stmt.kind with
          | Pinpoint_ir.Stmt.Call c
            when Prog.is_defined prog c.Pinpoint_ir.Stmt.callee ->
            let callee = c.Pinpoint_ir.Stmt.callee in
            Hashtbl.replace scanned callee
              ((f.Pinpoint_ir.Func.fname, s.Pinpoint_ir.Stmt.sid)
              :: Option.value ~default:[] (Hashtbl.find_opt scanned callee))
          | _ -> ()))
    (Prog.functions prog);
  List.iter
    (fun (f : Pinpoint_ir.Func.t) ->
      let name = f.Pinpoint_ir.Func.fname in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s: call sites of %s = from scratch" what name)
        (Option.value ~default:[] (Hashtbl.find_opt scanned name))
        (List.map
           (fun ((c : Pinpoint_ir.Func.t), (s : Pinpoint_ir.Stmt.t)) ->
             (c.Pinpoint_ir.Func.fname, s.Pinpoint_ir.Stmt.sid))
           (Callgraph.callers g name)))
    (Prog.functions prog)

(* Served reports equal batch ones, one-line and in full ([-v]: the
   value-flow trace and trigger hints, symbols and all). *)
let same_as_batch what st files =
  let verbose = Format.asprintf "%a" Pinpoint.Report.pp in
  List.iter
    (fun (spec : Pinpoint.Checker_spec.t) ->
      let batch = Helpers.batch_reports files spec
      and served = fst (Incr.check st spec) in
      let name = spec.Pinpoint.Checker_spec.name in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s server = batch" what name)
        (Helpers.render_reports batch) (Helpers.render_reports served);
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s server = batch (-v)" what name)
        (Helpers.render_reports ~render:verbose batch)
        (Helpers.render_reports ~render:verbose served))
    checkers_under_test

(* Edit shapes the cutoff must get right, each followed by served =
   batch and resident graph = from scratch:
   - a line inserted at the top of a file: a function's AST carries its
     locations, so every function of that file is re-lowered, but their
     interfaces and summaries are unchanged, so no caller is redone;
   - an edit that creates a recursion cycle, and one that breaks it.
     [f] calls [g], which stores a freed pointer through [f]'s cell; in
     the cycle {f, g}, [f] is processed first and its call to [g] stays
     un-rewritten, so the use-after-free in [f] is only found once the
     cycle is broken — [f]'s body and [g]'s interface are the same
     either way, so only the SCC rule re-transforms [f]. *)
let cycle_subject ~cycle =
  Printf.sprintf
    {|void f(int n) {
  int **ptr = malloc();
  int *a = malloc();
  *ptr = a;
  g(ptr, n);
  int *x = *ptr;
  print(*x);
}

void g(int **q, int n) {
  int *c = malloc();
  *q = c;
  free(c);
  %s
}
|}
    (if cycle then "if (n > 0) { f(n - 1); }" else "print(n);")

let test_edit_shapes () =
  let chunks = Helpers.split_subject 3 (Helpers.subject ~seed:23 ~loc:450 ()) in
  let st = Incr.load (Helpers.contents_of chunks) in
  let files () = Helpers.contents_of chunks in
  same_as_batch "load" st (files ());
  let name, _ = chunks.(1) in
  let shifted = "\n" ^ List.assoc name (files ()) in
  let stats = Incr.update st [ (name, shifted) ] in
  let in_file = List.length (snd chunks.(1)) in
  Alcotest.(check (pair int int))
    "line on top: the file's functions re-lowered, no caller redone"
    (in_file, 0) (stats.Incr.retransformed, stats.Incr.resummarised);
  let files_now =
    List.map (fun (n, c) -> if n = name then (n, shifted) else (n, c)) (files ())
  in
  same_as_batch "line on top" st files_now;
  check_graph "line on top" st files_now;
  let cyc = Incr.load [ ("cyc.mc", cycle_subject ~cycle:false) ] in
  same_as_batch "acyclic" cyc [ ("cyc.mc", cycle_subject ~cycle:false) ];
  List.iter
    (fun (what, cycle, n_uaf) ->
      let files = [ ("cyc.mc", cycle_subject ~cycle) ] in
      let stats = Incr.update cyc files in
      Alcotest.(check bool) (what ^ " is incremental") false stats.Incr.full_rebuild;
      same_as_batch what cyc files;
      Alcotest.(check int)
        (what ^ ": use-after-free reports")
        n_uaf
        (List.length (server_renders cyc Pinpoint.Checkers.use_after_free));
      check_graph what cyc files)
    [ ("cycle made", true, 0); ("cycle broken", false, 1) ]

(* h -> f -> g, with one knob per propagation rule, each edit to [g]
   alone:
   - [store]: g stores a freed pointer through its first parameter — an
     interface change, so f is re-transformed (and, its own interface
     changing too, h); h then dereferences the freed pointer;
   - [ret]: g's result decides a guard in h on f's result — an RV change
     that reaches h only through f's entry;
   - [free]: g newly frees its second parameter — a VF change (VF3/VF4)
     with the same interface and RV entries, so f's VF entry changes and
     h's double free through f is found only if f is re-summarised;
   - [ret]: besides constants, g's result can be decided by a guard on
     its parameter [a] — a control dependence, so no value flows from a
     parameter to the return and g's VF entries stay empty;
   - [swap]: g's last two parameters then swap names — printed, g's RV
     entry is the same, but its guard now reads the other position: only
     equality modulo renaming, formals seeded by position, sees the
     change.
   A check runs after every edit, so a search stored then — h's guarded
   use-after-free, which read f's RV entry — must be re-run after the
   next RV edit. *)
let rules_subject ~store ~ret ~free ~swap =
  Printf.sprintf
    {|int g(int **q, int *p, %s) {
  %s
  %s
  %s
  return r;
}

int f(int **q, int *p, int s) {
  int r = g(q, p, s, 10);
  return r;
}

void h(int n) {
  int **ptr = malloc();
  int *a = malloc();
  *ptr = a;
  int *p = malloc();
  free(p);
  int r = f(ptr, p, 1);
  int *x = *ptr;
  print(*x);
  int *m = malloc();
  free(m);
  if (r > 5) { print(*m); }
}
|}
    (if swap then "int b, int a" else "int a, int b")
    (if store then "int *c = malloc(); *q = c; free(c);" else "")
    (if free then "free(p);" else "")
    ret

let test_cutoff_rules () =
  let file ~store ~ret ~free ~swap =
    [ ("rules.mc", rules_subject ~store ~ret ~free ~swap) ]
  in
  let const n = Printf.sprintf "int r = %d;" n in
  let guarded = "int r = 0; if (a > 5) { r = 10; }" in
  let v0 = file ~store:false ~ret:(const 3) ~free:false ~swap:false in
  let st = Incr.load v0 in
  same_as_batch "load" st v0;
  List.iter
    (fun (what, files, (retransformed, resummarised), (n_uaf, n_df)) ->
      let stats = Incr.update st files in
      same_as_batch what st files;
      Alcotest.(check (pair int int))
        (what ^ ": (use-after-free, double-free) reports")
        (n_uaf, n_df)
        ( List.length (server_renders st Pinpoint.Checkers.use_after_free),
          List.length (server_renders st Pinpoint.Checkers.double_free) );
      Alcotest.(check (pair int int))
        (what ^ ": (retransformed, resummarised)")
        (retransformed, resummarised)
        (stats.Incr.retransformed, stats.Incr.resummarised))
    [
      ( "interface",
        file ~store:true ~ret:(const 3) ~free:false ~swap:false,
        (3, 0),
        (1, 0) );
      ("RV", file ~store:true ~ret:(const 30) ~free:false ~swap:false, (1, 2), (2, 0));
      ("VF", file ~store:true ~ret:(const 30) ~free:true ~swap:false, (1, 2), (2, 1));
      ( "RV by guard",
        file ~store:true ~ret:guarded ~free:true ~swap:false,
        (1, 2),
        (1, 1) );
      ( "renamed formals",
        file ~store:true ~ret:guarded ~free:true ~swap:true,
        (1, 2),
        (2, 1) );
    ]

(* ---------- server protocol ---------- *)

let req_of_files ?id ?(checkers = []) ?deadline_s files =
  let fields = ref [] in
  Option.iter (fun i -> fields := [ ("id", Json.Int i) ]) id;
  fields := !fields @ [ ("op", Json.String "check") ];
  if files <> [] then
    fields :=
      !fields
      @ [
          ( "files",
            Json.List
              (List.map
                 (fun (n, c) ->
                   Json.Obj
                     [ ("name", Json.String n); ("contents", Json.String c) ])
                 files) );
        ];
  if checkers <> [] then
    fields :=
      !fields
      @ [ ("checkers", Json.List (List.map (fun c -> Json.String c) checkers)) ];
  Option.iter
    (fun d -> fields := !fields @ [ ("deadline_s", Json.Float d) ])
    deadline_s;
  Json.to_string (Json.Obj !fields)

let parse_response resp =
  match Json.parse resp with
  | Ok j -> j
  | Error msg -> Alcotest.failf "bad response JSON: %s (%s)" msg resp

let response_ok j =
  match Option.bind (Json.member "ok" j) Json.bool_opt with
  | Some b -> b
  | None -> false

let response_renders j =
  match Option.bind (Json.member "checkers" j) Json.list_opt with
  | None -> []
  | Some cs ->
    List.concat_map
      (fun c ->
        match Option.bind (Json.member "reports" c) Json.list_opt with
        | None -> []
        | Some rs ->
          List.filter_map
            (fun r -> Option.bind (Json.member "render" r) Json.string_opt)
            rs)
      cs

(* (b) fault-injected soak: 200 requests at 20% injection, every request
   answered, state alive throughout, incident log bounded.
   Also run with a jobs-4 pool so the chunked dirty-cone rebuild path
   soaks under the same fault rates. *)
let test_soak ?pool () =
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:47 ~loc:250 ()) in
  let config = { Server.default_config with Server.incident_cap = 100; pool } in
  let t = Server.create ~config () in
  Server.load_files t (Helpers.contents_of chunks);
  Fun.protect ~finally:Resilience.Inject.clear (fun () ->
      Resilience.Inject.(
        install
          {
            default with
            seed = 7;
            solver_fault_rate = 0.2;
            seg_drop_rate = 0.2 /. 3.0;
            seg_truncate_rate = 0.2 /. 3.0;
            seg_crash_rate = 0.2 /. 3.0;
          });
      for i = 1 to 200 do
        ignore (Helpers.bump_nth_function chunks ~chunk:0 ~i);
        let name, fds = chunks.(0) in
        let req =
          req_of_files ~id:i
            ~checkers:[ "use-after-free" ]
            [ (name, Helpers.emit_fdecls fds) ]
        in
        let resp, action = Server.handle_line t req in
        let j = parse_response resp in
        if action <> `Continue then Alcotest.failf "request %d stopped server" i;
        if not (response_ok j) then
          Alcotest.failf "request %d not ok: %s" i resp
      done;
      let resp, _ =
        Server.handle_line t (Json.to_string (Json.Obj [ ("op", Json.String "status") ]))
      in
      let j = parse_response resp in
      Alcotest.(check bool) "status ok" true (response_ok j);
      let stat path =
        match
          Option.bind
            (List.fold_left
               (fun acc k -> Option.bind acc (Json.member k))
               (Some j) path)
            Json.int_opt
        with
        | Some n -> n
        | None -> Alcotest.failf "status missing %s" (String.concat "." path)
      in
      Alcotest.(check bool)
        "faults actually injected" true
        (stat [ "incidents"; "total" ] > 0);
      Alcotest.(check bool)
        "incident log bounded" true
        (stat [ "incidents"; "retained" ] <= 100))

(* (c) a deadline-blown request degrades its own verdicts and leaves the
   next request untouched. *)
let test_deadline_isolation () =
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:53 ~loc:300 ()) in
  let t = Server.create () in
  Server.load_files t (Helpers.contents_of chunks);
  let blown, action =
    Server.handle_line t
      (req_of_files ~id:1 ~checkers:[ "use-after-free" ] ~deadline_s:1e-9 [])
  in
  Alcotest.(check bool) "server continues" true (action = `Continue);
  Alcotest.(check bool) "blown request answered" true
    (response_ok (parse_response blown));
  let resp, _ =
    Server.handle_line t (req_of_files ~id:2 ~checkers:[ "use-after-free" ] [])
  in
  let j = parse_response resp in
  Alcotest.(check bool) "next request ok" true (response_ok j);
  Alcotest.(check (list string))
    "next request matches batch"
    (Helpers.batch_renders (Helpers.contents_of chunks) Pinpoint.Checkers.use_after_free)
    (response_renders j)

(* RSS watermark shedding: an absurdly low watermark refuses the check
   with an explicit overloaded response and keeps the server alive. *)
let test_rss_shedding () =
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:59 ~loc:150 ()) in
  let t =
    Server.create
      ~config:{ Server.default_config with Server.max_rss_mb = 0.001 }
      ()
  in
  Server.load_files t (Helpers.contents_of chunks);
  let resp, action = Server.handle_line t (req_of_files ~id:1 []) in
  let j = parse_response resp in
  Alcotest.(check bool) "request refused" false (response_ok j);
  Alcotest.(check (option bool))
    "marked overloaded" (Some true)
    (Option.bind (Json.member "overloaded" j) Json.bool_opt);
  Alcotest.(check bool) "server continues" true (action = `Continue)

(* A malformed request (bad JSON, bad MC) is an error response, not a
   crash, and the resident state survives — also when the request would
   have changed the function set, which takes the full-rebuild path. *)
let test_request_isolation () =
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:61 ~loc:150 ()) in
  let t = Server.create () in
  Server.load_files t (Helpers.contents_of chunks);
  let before = Helpers.batch_renders (Helpers.contents_of chunks) Pinpoint.Checkers.use_after_free in
  let defined = (List.hd (snd chunks.(0))).Ast.fname in
  let new_file name contents =
    req_of_files ~checkers:[ "use-after-free" ] [ (name, contents) ]
  in
  let error_of bad =
    let resp, action = Server.handle_line t bad in
    Alcotest.(check bool) "continues" true (action = `Continue);
    let j = parse_response resp in
    Alcotest.(check bool)
      (Printf.sprintf "rejected: %s" bad)
      false (response_ok j);
    Option.value ~default:"" (Option.bind (Json.member "error" j) Json.string_opt)
  in
  let status path =
    let status, _ =
      Server.handle_line t (Json.to_string (Json.Obj [ ("op", Json.String "status") ]))
    in
    Option.bind
      (List.fold_left
         (fun j k -> Option.bind j (Json.member k))
         (Some (parse_response status)) path)
      Json.int_opt
  in
  let epoch_before = status [ "epoch" ] in
  Alcotest.(check bool) "status reports the epoch" true (epoch_before <> None);
  List.iter
    (fun bad ->
      (* bad input gets a structured error, never an escaped exception *)
      Alcotest.(check bool)
        (Printf.sprintf "structured error: %s" bad)
        false
        (String.starts_with ~prefix:"internal error" (error_of bad)))
    [
      "not json at all";
      {|{"op":"frobnicate"}|};
      {|{"op":"check","files":[{"name":"srv_0.mc","contents":"void broken( {"}]}|};
      {|{"op":"check","files":[{"name":"srv_0.mc","contents":"void f() { int x = 99999999999999999999; }"}]}|};
      {|{"op":"check","x":"\uzzzz"}|};
      new_file "c.mc" "void wedge_h(int *p) { free(p, p); }";
    ];
  (* one file named twice has no single contents to apply: refused
     before any state changes *)
  let edited i =
    let copy = Array.copy chunks in
    ignore (Helpers.bump_nth_function copy ~chunk:0 ~i);
    Helpers.emit_fdecls (snd copy.(0))
  in
  Alcotest.(check string)
    "duplicate file" "bad request: duplicate file srv_0.mc"
    (error_of
       (req_of_files ~checkers:[ "use-after-free" ]
          [ ("srv_0.mc", edited 0); ("srv_0.mc", edited 1) ]));
  (* a body that fails to lower behind unchanged headers: refused after
     the header check, still before any state changes *)
  let undeclared =
    let src = Helpers.emit_fdecls (snd chunks.(0)) in
    let i = String.index src '{' + 1 in
    String.sub src 0 i ^ " print(srv_undeclared);"
    ^ String.sub src i (String.length src - i)
  in
  Alcotest.(check bool)
    "undeclared variable" true
    (Pinpoint_util.Pp.contains
       (error_of (new_file "srv_0.mc" undeclared))
       "undeclared variable srv_undeclared");
  List.iter
    (fun (bad, expected) ->
      Alcotest.(check string) "duplicate definition" expected (error_of bad))
    [
      ( new_file "dup.mc" "int dupf() { return 1; }\nint dupf() { return 2; }",
        "dup.mc:2: duplicate definition of function dupf" );
      ( new_file "dup.mc" (Printf.sprintf "void %s() { }" defined),
        Printf.sprintf "dup.mc:1: duplicate definition of function %s" defined );
      ( new_file "dp.mc" "void dupp(int *a, int *a) { free(a); }",
        "dp.mc:1: duplicate parameter a" );
    ];
  (* a line that is not an object, or whose op is not a string, runs
     nothing: the check counter must not move *)
  let checks () = status [ "ops"; "check" ] in
  let checks_before = checks () in
  Alcotest.(check bool) "status counts checks" true (checks_before <> None);
  List.iter
    (fun (bad, expected) -> Alcotest.(check string) bad expected (error_of bad))
    [
      ("[1,2,3]", "bad request: request must be a JSON object");
      ({|"str"|}, "bad request: request must be a JSON object");
      ("null", "bad request: request must be a JSON object");
      ({|{"op":42}|}, "bad request: op must be a string");
    ];
  Alcotest.(check (option int)) "no check ran" checks_before (checks ());
  (* an optional field of the wrong type is refused, not read as absent,
     before any state changes — also when the request carries an edit *)
  let edit_with field value =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "check");
           ( "files",
             Json.List
               [
                 Json.Obj
                   [
                     ("name", Json.String "srv_0.mc");
                     ("contents", Json.String (edited 0));
                   ];
               ] );
           (field, value);
         ])
  in
  let bad_format = {|bad request: format must be "json" or "prometheus"|} in
  List.iter
    (fun (bad, expected) -> Alcotest.(check string) bad expected (error_of bad))
    [
      ( {|{"op":"check","checkers":"use-after-free"}|},
        "bad request: checkers must be a list of checker names" );
      ( {|{"op":"check","deadline_s":"0.000000001"}|},
        "bad request: deadline_s must be a number" );
      ( {|{"op":"check","solver_budget_s":true}|},
        "bad request: solver_budget_s must be a number" );
      ( {|{"op":"check","solver_conflicts":1.5}|},
        "bad request: solver_conflicts must be an integer" );
      ( edit_with "checkers" (Json.String "use-after-free"),
        "bad request: checkers must be a list of checker names" );
      ( edit_with "deadline_s" (Json.String "1"),
        "bad request: deadline_s must be a number" );
      ({|{"op":"metrics","format":"xml"}|}, bad_format);
      ({|{"op":"metrics","format":42}|}, bad_format);
      ({|{"op":"dump","what":5}|}, "bad request: what must be a string");
      ( {|{"op":"dump","path":"flight-elsewhere.json"}|},
        "bad request: path is not accepted (a dump goes to --flight-file)" );
      ( {|{"op":"dump","what":"trace","request_id":1}|},
        "bad request: request_id must be a string" );
      ({|{"op":"dump","inline":"yes"}|}, "bad request: inline must be a boolean");
    ];
  let metrics_json, _ =
    Server.handle_line t {|{"op":"metrics","format":"json"}|}
  in
  Alcotest.(check bool) "format json accepted" true
    (response_ok (parse_response metrics_json));
  let resp, _ =
    Server.handle_line t (req_of_files ~checkers:[ "use-after-free" ] [])
  in
  Alcotest.(check (list string))
    "state survived bad requests" before
    (response_renders (parse_response resp));
  Alcotest.(check (option int)) "rejected files not resident" (Some 1) (status [ "files" ]);
  Alcotest.(check (option int)) "epoch unchanged" epoch_before (status [ "epoch" ]);
  ignore (Helpers.bump_nth_function chunks ~chunk:0 ~i:0);
  let name, fds = chunks.(0) in
  let resp, _ =
    Server.handle_line t
      (req_of_files ~checkers:[ "use-after-free" ] [ (name, Helpers.emit_fdecls fds) ])
  in
  let j = parse_response resp in
  Alcotest.(check bool) "next edit ok" true (response_ok j);
  Alcotest.(check (option int))
    "next edit bumps the epoch"
    (Option.map succ epoch_before) (status [ "epoch" ]);
  Alcotest.(check (list string))
    "next edit matches batch"
    (Helpers.batch_renders (Helpers.contents_of chunks) Pinpoint.Checkers.use_after_free)
    (response_renders j)

(* (d) warm restart: a fresh server recovering from the epoch snapshot +
   journal answers exactly like the one that wrote them. *)
let test_warm_restart () =
  Helpers.with_temp_dir "pinpoint_srv_" @@ fun dir ->
  let config =
    {
      Server.default_config with
      Server.snapshot_dir = Some dir;
      snapshot_every = 1000 (* force journal replay, not snapshot reload *);
    }
  in
  let chunks = Helpers.split_subject 2 (Helpers.subject ~seed:67 ~loc:300 ()) in
  let t1 = Server.create ~config () in
  Server.load_files t1 (Helpers.contents_of chunks);
  for i = 1 to 3 do
    ignore (Helpers.bump_nth_function chunks ~chunk:(i mod 2) ~i);
    let name, fds = chunks.(i mod 2) in
    let resp, _ =
      Server.handle_line t1
        (req_of_files ~id:i ~checkers:[ "use-after-free" ]
           [ (name, Helpers.emit_fdecls fds) ])
    in
    Alcotest.(check bool) "update ok" true (response_ok (parse_response resp))
  done;
  let final t =
    let resp, _ =
      Server.handle_line t (req_of_files ~checkers:[ "use-after-free" ] [])
    in
    response_renders (parse_response resp)
  in
  let expected = final t1 in
  let t2 = Server.create ~config () in
  Alcotest.(check bool) "recovered" true (Server.recover t2);
  Alcotest.(check (list string)) "same reports after restart" expected (final t2);
  (* A torn journal tail (crash mid-append) is ignored, not fatal. *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "journal.jsonl")
  in
  output_string oc {|{"epoch":99,"files":[{"name":"srv_0.mc","con|};
  close_out oc;
  let t3 = Server.create ~config () in
  Alcotest.(check bool) "recovered past torn tail" true (Server.recover t3);
  Alcotest.(check (list string)) "torn tail ignored" expected (final t3)

(* ---------- satellite caps ---------- *)

let test_incident_rotation () =
  let log = Resilience.create ~capacity:5 () in
  for i = 1 to 12 do
    Resilience.record log
      {
        Resilience.phase = Resilience.Solver_query;
        subject = Printf.sprintf "q%d" i;
        detail = "synthetic";
        fallback = "none";
        elapsed_s = 0.0;
      }
  done;
  Alcotest.(check int) "total is monotonic" 12 (Resilience.count log);
  Alcotest.(check int) "retained capped" 5 (Resilience.retained log);
  (* Rotation is amortised; [incidents] forces the pending trim. *)
  let kept = Resilience.incidents log in
  Alcotest.(check int) "total unchanged by trim" 12 (Resilience.count log);
  Alcotest.(check int) "dropped counted" 7 (Resilience.dropped log);
  Alcotest.(check int) "list capped" 5 (List.length kept);
  Alcotest.(check string) "newest kept" "q12"
    (List.nth kept 4).Resilience.subject;
  Alcotest.(check string) "oldest rotated out" "q8"
    (List.hd kept).Resilience.subject

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\te\r \x01 ü");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String ""; Json.Obj [] ]);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  (match Json.parse s with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (match Json.parse {| {"u":"ü😀","e":[]} |} with
  | Ok v -> (
    match Option.bind (Json.member "u" v) Json.string_opt with
    | Some s -> Alcotest.(check string) "unicode escapes" "\xc3\xbc\xf0\x9f\x98\x80" s
    | None -> Alcotest.fail "missing member")
  | Error e -> Alcotest.failf "unicode parse failed: %s" e);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "{";
      "[1,]";
      "{\"a\":1} trailing";
      "nul";
      "\"unterminated";
      {|"\uzzzz"|};
      {|"\u1_23"|};
      {|"\u12"|};
      {|"\ud800"|};
      {|"\ud800x"|};
      {|"\ud800\u0041"|};
      {|"\udc00"|};
    ];
  match Json.parse {|"\u00fc\ud83d\ude00\u0041"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "escaped pair" "\xc3\xbc\xf0\x9f\x98\x80A" s
  | _ -> Alcotest.fail "escaped pair rejected"

(* ---------- live telemetry (DESIGN.md §4.16) ---------- *)

module Obs = Pinpoint_obs.Obs
module Flight = Pinpoint_obs.Flight

let op_req ?(fields = []) op =
  Json.to_string (Json.Obj (("op", Json.String op) :: fields))

(* Run [f] at an obs level, restoring [Off] and disabling the flight
   recorder on the way out so telemetry never leaks across tests. *)
let with_obs level f =
  Obs.reset ();
  Obs.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level Obs.Off;
      Obs.reset ();
      Flight.set_enabled false;
      Flight.clear ())
    f

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let tmp_flight_file tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pinpoint_flight_%d_%s.json" (Unix.getpid ()) tag)

(* Every span recorded while a request is in flight — including the ones
   run on jobs-4 pool workers — carries that request's id, and the spans
   of one request form a properly nested tree per domain. *)
let test_request_spans_jobs4 () =
  with_obs Obs.Trace @@ fun () ->
  Pinpoint_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  let chunks = Helpers.split_subject 2 (Helpers.subject ~seed:71 ~loc:300 ()) in
  let t =
    Server.create
      ~config:{ Server.default_config with Server.pool = Some pool }
      ()
  in
  Server.load_files t (Helpers.contents_of chunks);
  let rids = ref [] in
  for i = 1 to 4 do
    ignore (Helpers.bump_nth_function chunks ~chunk:(i mod 2) ~i);
    let name, fds = chunks.(i mod 2) in
    let resp, _ =
      Server.handle_line t
        (req_of_files ~id:i ~checkers:[ "use-after-free" ]
           [ (name, Helpers.emit_fdecls fds) ])
    in
    let j = parse_response resp in
    Alcotest.(check bool) "check ok" true (response_ok j);
    match Option.bind (Json.member "request" j) Json.string_opt with
    | Some r -> rids := r :: !rids
    | None -> Alcotest.fail "response missing request id"
  done;
  let rids = List.rev !rids in
  Alcotest.(check (list string)) "ids are the request sequence"
    [ "r000001"; "r000002"; "r000003"; "r000004" ]
    rids;
  let spans = Obs.spans () in
  let tagged = List.filter (fun (s : Obs.span) -> s.Obs.req <> "") spans in
  Alcotest.(check bool) "request-tagged spans exist" true (tagged <> []);
  List.iter
    (fun (s : Obs.span) ->
      if not (List.mem s.Obs.req rids) then
        Alcotest.failf "span %s carries unknown request id %S" s.Obs.name
          s.Obs.req)
    tagged;
  List.iter
    (fun rid ->
      let mine = List.filter (fun (s : Obs.span) -> s.Obs.req = rid) spans in
      Alcotest.(check bool) (rid ^ " has a root span") true
        (List.exists (fun (s : Obs.span) -> s.Obs.name = "server.request") mine);
      Alcotest.(check bool) (rid ^ " reaches the engine") true
        (List.exists
           (fun (s : Obs.span) ->
             s.Obs.name = "incr.check" || s.Obs.name = "incr.update")
           mine);
      (* per-domain stack discipline over the request's own spans: replay
         open/close events in per-domain sequence order *)
      let doms =
        List.sort_uniq compare
          (List.map (fun (s : Obs.span) -> s.Obs.dom) mine)
      in
      List.iter
        (fun dom ->
          let evs =
            List.filter (fun (s : Obs.span) -> s.Obs.dom = dom) mine
            |> List.concat_map (fun (s : Obs.span) ->
                   [ (s.Obs.open_seq, `Open s); (s.Obs.close_seq, `Close s) ])
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          let stack = ref [] in
          List.iter
            (fun (_, e) ->
              match e with
              | `Open s -> stack := s :: !stack
              | `Close s -> (
                match !stack with
                | top :: rest when top == s -> stack := rest
                | _ ->
                  Alcotest.failf "%s domain %d: ill-nested span %s" rid dom
                    s.Obs.name))
            evs;
          Alcotest.(check int)
            (Printf.sprintf "%s domain %d: all spans closed" rid dom)
            0
            (List.length !stack))
        doms)
    rids

(* status: uptime, per-op counters, window info, flight flag and the
   request/latency stamp on the response itself. *)
let test_status_telemetry () =
  with_obs Obs.Off @@ fun () ->
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:79 ~loc:150 ()) in
  let t = Server.create () in
  Server.load_files t (Helpers.contents_of chunks);
  let resp, _ =
    Server.handle_line t (req_of_files ~id:1 ~checkers:[ "use-after-free" ] [])
  in
  Alcotest.(check bool) "check ok" true (response_ok (parse_response resp));
  let resp, _ = Server.handle_line t (op_req "status") in
  let j = parse_response resp in
  Alcotest.(check bool) "status ok" true (response_ok j);
  (match Option.bind (Json.member "uptime_s" j) Json.number_opt with
  | Some u -> Alcotest.(check bool) "uptime >= 0" true (u >= 0.0)
  | None -> Alcotest.fail "status missing uptime_s");
  List.iter
    (fun (op, expected) ->
      Alcotest.(check (option int)) ("ops." ^ op) (Some expected)
        (Option.bind (member_path [ "ops"; op ] j) Json.int_opt))
    [ ("check", 1); ("status", 1); ("metrics", 0); ("dump", 0) ];
  Alcotest.(check bool) "window slots > 0" true
    (match Option.bind (member_path [ "window"; "slots" ] j) Json.int_opt with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check (option bool)) "flight on by default" (Some true)
    (Option.bind (Json.member "flight" j) Json.bool_opt);
  Alcotest.(check bool) "last_snapshot_epoch present" true
    (Option.bind (Json.member "last_snapshot_epoch" j) Json.int_opt <> None);
  Alcotest.(check (option string)) "request id stamped" (Some "r000002")
    (Option.bind (Json.member "request" j) Json.string_opt);
  Alcotest.(check bool) "latency stamped" true
    (Option.bind (Json.member "latency_s" j) Json.number_opt <> None)

(* metrics op after a 25-request stream: non-trivial, ordered latency
   quantiles in both the lifetime totals and the rolling window, per-op
   counters, and the Prometheus rendering of the same registry. *)
let test_metrics_op_quantiles () =
  with_obs Obs.Metrics_only @@ fun () ->
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:73 ~loc:250 ()) in
  let t = Server.create () in
  Server.load_files t (Helpers.contents_of chunks);
  for i = 1 to 25 do
    ignore (Helpers.bump_nth_function chunks ~chunk:0 ~i);
    let name, fds = chunks.(0) in
    let resp, _ =
      Server.handle_line t
        (req_of_files ~id:i ~checkers:[ "use-after-free" ]
           [ (name, Helpers.emit_fdecls fds) ])
    in
    Alcotest.(check bool)
      (Printf.sprintf "request %d ok" i)
      true
      (response_ok (parse_response resp))
  done;
  let resp, _ = Server.handle_line t (op_req "metrics") in
  let j = parse_response resp in
  Alcotest.(check bool) "metrics ok" true (response_ok j);
  let lat = "server.request_latency_s" in
  let num section field =
    match
      Option.bind
        (member_path [ section; "histograms"; lat; field ] j)
        Json.number_opt
    with
    | Some v -> v
    | None -> Alcotest.failf "metrics missing %s.%s.%s" section lat field
  in
  Alcotest.(check bool) "25 observations" true (num "totals" "n" >= 25.0);
  let p50 = num "totals" "p50"
  and p95 = num "totals" "p95"
  and p99 = num "totals" "p99" in
  Alcotest.(check bool)
    (Printf.sprintf "0 < p50(%g) <= p95(%g) <= p99(%g)" p50 p95 p99)
    true
    (p50 > 0.0 && p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "window view sees latency too" true
    (num "window" "p50" > 0.0);
  Alcotest.(check (option int)) "ops.check counted" (Some 25)
    (Option.bind (member_path [ "ops"; "check" ] j) Json.int_opt);
  Alcotest.(check (option int)) "ops.metrics counted" (Some 1)
    (Option.bind (member_path [ "ops"; "metrics" ] j) Json.int_opt);
  let resp, _ =
    Server.handle_line t
      (op_req "metrics" ~fields:[ ("format", Json.String "prometheus") ])
  in
  let j = parse_response resp in
  Alcotest.(check bool) "prometheus ok" true (response_ok j);
  match Option.bind (Json.member "prometheus" j) Json.string_opt with
  | None -> Alcotest.fail "prometheus payload missing"
  | Some text ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("exposition has " ^ needle) true
          (Pinpoint_util.Pp.contains text needle))
      [
        "# TYPE pinpoint_server_request_latency_s histogram";
        "pinpoint_server_request_latency_s_bucket{le=\"+Inf\"}";
        "pinpoint_server_op_check";
        "pinpoint_server_uptime_s";
      ]

(* The incr.* counters add up the incremental counts of every answered
   response, the first request's load included. *)
let test_incr_counters () =
  with_obs Obs.Metrics_only @@ fun () ->
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:73 ~loc:250 ()) in
  let t = Server.create () in
  let fields = [ "retransformed"; "resummarised" ] in
  let sums = Hashtbl.create 2 in
  let send () =
    let resp, _ =
      Server.handle_line t
        (req_of_files ~checkers:[ "use-after-free" ] (Helpers.contents_of chunks))
    in
    let j = parse_response resp in
    Alcotest.(check bool) "request ok" true (response_ok j);
    List.iter
      (fun field ->
        match Option.bind (member_path [ "incremental"; field ] j) Json.int_opt with
        | Some n ->
          Hashtbl.replace sums field
            (n + Option.value ~default:0 (Hashtbl.find_opt sums field))
        | None -> Alcotest.failf "response missing incremental.%s" field)
      fields
  in
  send ();
  for i = 1 to 4 do
    ignore (Helpers.bump_nth_function chunks ~chunk:0 ~i);
    send ()
  done;
  let resp, _ = Server.handle_line t (op_req "metrics") in
  let j = parse_response resp in
  List.iter
    (fun field ->
      Alcotest.(check (option int))
        ("incr." ^ field) (Hashtbl.find_opt sums field)
        (Option.bind
           (member_path [ "totals"; "counters"; "incr." ^ field ] j)
           Json.int_opt))
    fields

(* dump op: flight-recorder dump to the configured path only, inline on
   request, and a per-request Chrome trace slice. *)
let test_dump_op () =
  with_obs Obs.Trace @@ fun () ->
  let path = tmp_flight_file "dump" in
  if Sys.file_exists path then Sys.remove path;
  let t =
    Server.create
      ~config:{ Server.default_config with Server.flight_file = path }
      ()
  in
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:97 ~loc:150 ()) in
  Server.load_files t (Helpers.contents_of chunks);
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let resp, _ =
        Server.handle_line t (req_of_files ~id:1 ~checkers:[ "use-after-free" ] [])
      in
      let rid =
        match
          Option.bind (Json.member "request" (parse_response resp))
            Json.string_opt
        with
        | Some r -> r
        | None -> Alcotest.fail "check response missing request id"
      in
      (* a request that names a path is refused: it writes neither that
         file nor the configured one *)
      let elsewhere = tmp_flight_file "elsewhere" in
      let resp, _ =
        Server.handle_line t
          (op_req "dump" ~fields:[ ("path", Json.String elsewhere) ])
      in
      Alcotest.(check bool) "a client's path refused" false
        (response_ok (parse_response resp));
      Alcotest.(check (pair bool bool)) "refused dump wrote nothing" (false, false)
        (Sys.file_exists elsewhere, Sys.file_exists path);
      (* inline, the recording comes back in the response too *)
      let resp, _ =
        Server.handle_line t (op_req "dump" ~fields:[ ("inline", Json.Bool true) ])
      in
      Alcotest.(check bool) "inline recording" true
        (match Option.bind (Json.member "flight" (parse_response resp)) Json.string_opt with
        | Some flight -> Pinpoint_util.Pp.contains flight rid
        | None -> false);
      let resp, _ = Server.handle_line t (op_req "dump") in
      let j = parse_response resp in
      Alcotest.(check bool) "dump ok" true (response_ok j);
      Alcotest.(check (option bool)) "written" (Some true)
        (Option.bind (Json.member "written" j) Json.bool_opt);
      Alcotest.(check (option string)) "configured path" (Some path)
        (Option.bind (Json.member "path" j) Json.string_opt);
      Alcotest.(check bool) "events recorded" true
        (match Option.bind (Json.member "events" j) Json.int_opt with
        | Some n -> n > 0
        | None -> false);
      let flight = Test_store.read_file path in
      (match Json.parse flight with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "flight dump is not JSON: %s" e);
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("flight has " ^ needle) true
            (Pinpoint_util.Pp.contains flight needle))
        [ "\"flight\""; "\"request\""; rid ];
      (* per-request trace slice *)
      let resp, _ =
        Server.handle_line t
          (op_req "dump"
             ~fields:
               [ ("what", Json.String "trace"); ("request_id", Json.String rid) ])
      in
      let j = parse_response resp in
      Alcotest.(check bool) "trace dump ok" true (response_ok j);
      match Option.bind (Json.member "trace" j) Json.string_opt with
      | None -> Alcotest.fail "trace payload missing"
      | Some trace ->
        Alcotest.(check bool) "trace is chrome format" true
          (Pinpoint_util.Pp.contains trace "\"traceEvents\"");
        Alcotest.(check bool) "trace slice mentions the request" true
          (Pinpoint_util.Pp.contains trace rid))

(* A crash that reaches the top barrier dumps the flight ring before
   answering, and the server keeps serving. *)
let test_flight_crash_dump () =
  with_obs Obs.Off @@ fun () ->
  let path = tmp_flight_file "crash" in
  if Sys.file_exists path then Sys.remove path;
  let t =
    Server.create
      ~config:{ Server.default_config with Server.flight_file = path }
      ()
  in
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:83 ~loc:150 ()) in
  Server.load_files t (Helpers.contents_of chunks);
  Fun.protect
    ~finally:(fun () ->
      Resilience.Inject.clear ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* inject_crash is only honoured while fault injection is armed *)
      Resilience.Inject.(install default);
      let resp, action =
        Server.handle_line t
          (Json.to_string
             (Json.Obj
                [ ("op", Json.String "check"); ("inject_crash", Json.Bool true) ]))
      in
      Alcotest.(check bool) "server continues" true (action = `Continue);
      Alcotest.(check bool) "crash answered as error" false
        (response_ok (parse_response resp));
      Alcotest.(check bool) "flight file written on crash" true
        (Sys.file_exists path);
      let flight = Test_store.read_file path in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("flight has " ^ needle) true
            (Pinpoint_util.Pp.contains flight needle))
        [ "\"crash\""; "injected: crash"; "\"r000001\"" ];
      (* the resident state survived the crash *)
      let resp, _ =
        Server.handle_line t (req_of_files ~id:2 ~checkers:[ "use-after-free" ] [])
      in
      Alcotest.(check bool) "next request ok" true
        (response_ok (parse_response resp)))

(* An RSS shed also dumps the ring: the recorder is the post-mortem for
   "why did my server refuse work". *)
let test_flight_shed_dump () =
  with_obs Obs.Off @@ fun () ->
  let path = tmp_flight_file "shed" in
  if Sys.file_exists path then Sys.remove path;
  let t =
    Server.create
      ~config:
        {
          Server.default_config with
          Server.max_rss_mb = 0.001;
          flight_file = path;
        }
      ()
  in
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:59 ~loc:150 ()) in
  Server.load_files t (Helpers.contents_of chunks);
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let resp, _ = Server.handle_line t (req_of_files ~id:1 []) in
      let j = parse_response resp in
      Alcotest.(check (option bool)) "overloaded" (Some true)
        (Option.bind (Json.member "overloaded" j) Json.bool_opt);
      Alcotest.(check bool) "flight file written on shed" true
        (Sys.file_exists path);
      let flight = Test_store.read_file path in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("flight has " ^ needle) true
            (Pinpoint_util.Pp.contains flight needle))
        [ "\"shed\""; "rss-watermark" ])

(* The transport answers each line before it reads the next: a script
   written up front is answered in full and in order, each response
   stamped; a shutdown stops the loop with the lines after it unread, and
   the end of input ends it. *)
let test_serve_channels () =
  with_obs Obs.Off @@ fun () ->
  let chunks = Helpers.split_subject 1 (Helpers.subject ~seed:97 ~loc:150 ()) in
  let t = Server.create () in
  Server.load_files t (Helpers.contents_of chunks);
  let input = Filename.temp_file "pinpoint_serve" ".ndjson" in
  let output = Filename.temp_file "pinpoint_serve" ".out" in
  let serve lines =
    Out_channel.with_open_text input (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let ic = open_in input and oc = open_out output in
    let result = Server.serve_channels t ic oc in
    let unread = In_channel.input_all ic in
    close_in ic;
    close_out oc;
    let responses =
      List.filter (( <> ) "") (String.split_on_char '\n' (Test_store.read_file output))
      |> List.map parse_response
    in
    (result, unread, responses)
  in
  let ids responses =
    List.map (fun j -> Option.bind (Json.member "id" j) Json.int_opt) responses
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove input; Sys.remove output)
    (fun () ->
      let checks =
        List.init 20 (fun i ->
            req_of_files ~id:(i + 1) ~checkers:[ "use-after-free" ] [])
      in
      let after = req_of_files ~id:100 [] in
      let result, unread, responses =
        serve
          (checks
          @ [ op_req ~fields:[ ("id", Json.Int 99) ] "shutdown"; after ])
      in
      Alcotest.(check bool) "stopped at shutdown" true (result = `Stop);
      Alcotest.(check string) "line after shutdown unread" (after ^ "\n") unread;
      Alcotest.(check (list (option int)))
        "answered in order"
        (List.init 20 (fun i -> Some (i + 1)) @ [ Some 99 ])
        (ids responses);
      List.iter
        (fun j ->
          Alcotest.(check bool) "ok" true (response_ok j);
          Alcotest.(check bool) "stamped" true
            (Json.member "request" j <> None && Json.member "latency_s" j <> None))
        responses;
      let result, unread, responses = serve [ req_of_files ~id:1 []; op_req "status" ] in
      Alcotest.(check bool) "ended at EOF" true (result = `Eof);
      Alcotest.(check string) "nothing left" "" unread;
      Alcotest.(check (list (option int))) "both answered" [ Some 1; None ]
        (ids responses))

(* A client that hangs up ends its connection, not the server: the
   failed write of its answer ends the loop with [`Eof], and the lines
   after that request stay unread. *)
let test_serve_hung_up_client () =
  with_obs Obs.Off @@ fun () ->
  let t = Server.create ~config:{ Server.default_config with Server.flight = false } () in
  let ir, iw = Unix.pipe () and r, w = Unix.pipe () in
  Unix.close r;
  let ic = Unix.in_channel_of_descr ir and oc = Unix.out_channel_of_descr w in
  let requests = Unix.out_channel_of_descr iw in
  output_string requests (op_req "status" ^ "\n" ^ op_req "status" ^ "\n");
  close_out requests;
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in ic;
      Sys.set_signal Sys.sigpipe sigpipe)
    (fun () ->
      Alcotest.(check bool) "connection ended" true
        (Server.serve_channels t ic oc = `Eof);
      Alcotest.(check string) "next request unread" (op_req "status" ^ "\n")
        (In_channel.input_all ic))

(* The registry counts at every obs level.  At Off, a check's returned
   counts are the registry's change in [engine.*]; a served session's
   status counts read the same at Off as at Metrics_only, and every
   refused request counts as an error, a field of the wrong type too. *)
let test_counts_every_level () =
  let src = Helpers.subject ~seed:79 ~loc:150 () in
  (with_obs Obs.Off @@ fun () ->
   let a = Pinpoint.Analysis.prepare_source src in
   let (_, stats), delta =
     Helpers.with_counters (fun () ->
         Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free)
   in
   let counts snap =
     List.filter_map
       (fun (name, v) ->
         match v with
         | Obs.Snapshot.Counter n when String.starts_with ~prefix:"engine." name
           ->
           Some (name, n)
         | _ -> None)
       snap
   in
   Alcotest.(check bool) "sources counted at Off" true
     (Obs.Snapshot.counter stats "engine.n_sources" > 0);
   Alcotest.(check (list (pair string int)))
     "returned counts = registry's engine.* change" (counts delta)
     (counts stats));
  let status level =
    with_obs level @@ fun () ->
    let t =
      Server.create ~config:{ Server.default_config with Server.flight = false } ()
    in
    Server.load_files t (Helpers.contents_of (Helpers.split_subject 1 src));
    List.iter
      (fun line -> ignore (Server.handle_line t line))
      [
        req_of_files ~checkers:[ "use-after-free"; "double-free" ] [];
        op_req "metrics";
        "[1,2,3]";
        op_req "bogus";
        {|{"op":"check","files":7}|};
        {|{"op":"metrics","format":"xml"}|};
        {|{"op":"dump","what":5}|};
        req_of_files ~checkers:[ "use-after-free" ] [];
      ];
    let j = parse_response (fst (Server.handle_line t (op_req "status"))) in
    List.map
      (fun key -> (key, Option.map Json.to_string (Json.member key j)))
      [ "ops"; "rungs"; "checks"; "errors"; "shed_rss" ]
  in
  let off = status Obs.Off in
  Alcotest.(check (option string)) "checks at Off" (Some "3")
    (List.assoc "checks" off);
  Alcotest.(check (option string)) "errors at Off" (Some "5")
    (List.assoc "errors" off);
  Alcotest.(check (list (pair string (option string))))
    "status counts: Off = Metrics_only" off (status Obs.Metrics_only)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "dirty cone is partial" `Quick test_cone_is_partial;
    Alcotest.test_case "edit cost is the cone" `Quick test_edit_cost_is_the_cone;
    Alcotest.test_case "per-edit memory soak" `Quick test_edit_soak;
    Alcotest.test_case "an edit never aliases ids" `Quick test_edit_never_aliases;
    Alcotest.test_case "memo follows the footprint (seq)" `Quick
      test_memo_footprint;
    Alcotest.test_case "edit shapes (seq)" `Quick test_edit_shapes;
    Alcotest.test_case "each cutoff rule (seq)" `Quick test_cutoff_rules;
    Alcotest.test_case "request isolation" `Quick test_request_isolation;
    Alcotest.test_case "deadline isolation" `Quick test_deadline_isolation;
    Alcotest.test_case "rss shedding" `Quick test_rss_shedding;
    Alcotest.test_case "warm restart" `Quick test_warm_restart;
    Alcotest.test_case "incident rotation" `Quick test_incident_rotation;
    Alcotest.test_case "request span trees (jobs 4)" `Quick
      test_request_spans_jobs4;
    Alcotest.test_case "status telemetry" `Quick test_status_telemetry;
    Alcotest.test_case "metrics op quantiles" `Quick test_metrics_op_quantiles;
    Alcotest.test_case "incremental counters" `Quick test_incr_counters;
    Alcotest.test_case "dump op (flight + trace slice)" `Quick test_dump_op;
    Alcotest.test_case "flight dump on crash" `Quick test_flight_crash_dump;
    Alcotest.test_case "flight dump on rss shed" `Quick test_flight_shed_dump;
    Alcotest.test_case "transport answers in order" `Quick test_serve_channels;
    Alcotest.test_case "transport survives a hung-up client" `Quick
      test_serve_hung_up_client;
    Alcotest.test_case "counts at every obs level" `Quick
      test_counts_every_level;
    Alcotest.test_case "fault-injected soak (200 req)" `Slow
      (fun () -> test_soak ());
    Alcotest.test_case "fault-injected soak (jobs 4)" `Slow
      (fun () ->
        Pinpoint_par.Pool.with_pool ~jobs:4 (fun p -> test_soak ~pool:p ()));
  ]
