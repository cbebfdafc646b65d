(* Tests for the connector-model transformation (paper §3.1.2, Fig. 3). *)

open Pinpoint_ir
module T = Pinpoint_transform.Transform

(* The transform alone: each SCC, bottom-up, through [T.process_scc],
   keeping every interface and every final points-to result. *)
type result = {
  ifaces : (string, T.iface) Hashtbl.t;
  ptas : (string, Pinpoint_pta.Pta.t) Hashtbl.t;
}

let transform graph =
  let ifaces = Hashtbl.create 16 and ptas = Hashtbl.create 16 in
  List.iter
    (T.process_scc ~iface_of:(Hashtbl.find_opt ifaces)
       ~put_iface:(Hashtbl.replace ifaces) ~put_pta:(Hashtbl.replace ptas))
    (Callgraph.sccs graph);
  { ifaces; ptas }

let fig2_src =
  {|
void bar(int **q) {
  int *c = malloc();
  bool th3 = *q != null;
  if (th3) { *q = c; free(c); }
}
void foo(int *a) {
  int **ptr = malloc();
  *ptr = a;
  bar(ptr);
  int *f = *ptr;
  print(*f);
}
|}

let test_aux_formal_inserted () =
  let prog = Helpers.compile fig2_src in
  let res = transform (Callgraph.build prog) in
  let bar = Helpers.func prog "bar" in
  let iface = Hashtbl.find res.ifaces "bar" in
  (* bar reads and writes *(q,1): one F, one R *)
  Alcotest.(check int) "one ref path" 1 (List.length iface.T.ref_paths);
  Alcotest.(check int) "one mod path" 1 (List.length iface.T.mod_paths);
  Alcotest.(check int) "params extended" 2 (List.length bar.Func.params);
  (* entry store *(q,1) <- F at the beginning *)
  let entry = Func.block bar bar.Func.entry in
  (match entry.Func.stmts with
  | { Stmt.kind = Stmt.Store (Stmt.Ovar q, 1, Stmt.Ovar f); _ } :: _ ->
    Alcotest.(check string) "base is q" "q" q.Var.name;
    Alcotest.(check bool) "value is aux formal" true
      (match f.Var.kind with Var.Aux_formal _ -> true | _ -> false)
  | _ -> Alcotest.fail "missing entry conduit store");
  (* the return carries the aux return value *)
  match Func.return_stmt bar with
  | Some { Stmt.kind = Stmt.Return [ Stmt.Ovar r ]; _ } ->
    Alcotest.(check bool) "aux return" true
      (match r.Var.kind with Var.Aux_return _ -> true | _ -> false)
  | _ -> Alcotest.fail "missing extended return"

let test_call_site_rewritten () =
  let prog = Helpers.compile fig2_src in
  let _ = transform (Callgraph.build prog) in
  let foo = Helpers.func prog "foo" in
  (* the call to bar now passes an extra actual (loaded before) and
     receives an extra value (stored after) *)
  let checked = ref false in
  Func.iter_blocks foo (fun blk ->
      let rec scan = function
        | a :: b :: c :: rest -> (
          match (a.Stmt.kind, b.Stmt.kind, c.Stmt.kind) with
          | Stmt.Load (av, _, 1), Stmt.Call call, Stmt.Store (_, 1, Stmt.Ovar cv)
            when call.Stmt.callee = "bar" ->
            checked := true;
            Alcotest.(check int) "two args" 2 (List.length call.Stmt.args);
            Alcotest.(check int) "one recv" 1 (List.length call.Stmt.recvs);
            Alcotest.(check bool) "A is aux actual" true
              (match av.Var.kind with Var.Aux_actual _ -> true | _ -> false);
            Alcotest.(check bool) "C is aux receiver" true
              (match cv.Var.kind with Var.Aux_receiver _ -> true | _ -> false)
          | _ -> scan (b :: c :: rest))
        | _ -> ()
      in
      scan blk.Func.stmts);
  Alcotest.(check bool) "found rewritten call" true !checked

let test_ssa_preserved () =
  let prog = Helpers.compile fig2_src in
  let _ = transform (Callgraph.build prog) in
  List.iter
    (fun f ->
      Alcotest.(check bool) ("ssa " ^ f.Func.fname) true (Ssa.is_ssa f);
      match Func.validate f with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" f.Func.fname e)
    (Prog.functions prog)

let test_transitive_side_effects () =
  (* h writes *(p,1) through g: g's MOD must propagate to h's caller *)
  let prog =
    Helpers.compile
      {|
void g(int **p, int *v) { *p = v; }
void h(int **p, int *v) { g(p, v); }
void top(int *v) { int **h0 = malloc(); h(h0, v); int *r = *h0; print(*r); }
|}
  in
  let res = transform (Callgraph.build prog) in
  let g_iface = Hashtbl.find res.ifaces "g" in
  let h_iface = Hashtbl.find res.ifaces "h" in
  Alcotest.(check int) "g mods" 1 (List.length g_iface.T.mod_paths);
  Alcotest.(check int) "h inherits the mod" 1 (List.length h_iface.T.mod_paths);
  (* and top's load of *h0 resolves to the receiver conduit *)
  let pta = Hashtbl.find res.ptas "top" in
  let top = Helpers.func prog "top" in
  let resolved = ref false in
  Func.iter_stmts top (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Load (v, _, 1) when Pinpoint_ir.Ty.is_pointer v.Var.ty -> (
        match Hashtbl.find_opt pta.Pinpoint_pta.Pta.load_res s.Stmt.sid with
        | Some entries ->
          List.iter
            (fun (e : Pinpoint_pta.Pta.entry) ->
              match e.Pinpoint_pta.Pta.value with
              | Stmt.Ovar u -> (
                match u.Var.kind with
                | Var.Aux_receiver _ -> resolved := true
                | _ -> ())
              | _ -> ())
            entries
        | None -> ())
      | _ -> ());
  Alcotest.(check bool) "load sees conduit" true !resolved

let test_recursion_no_explosion () =
  let prog =
    Helpers.compile
      {|
void rec1(int **p, int n) { if (n > 0) { rec2(p, n - 1); } *p = malloc(); }
void rec2(int **p, int n) { if (n > 0) { rec1(p, n - 1); } }
|}
  in
  let res = transform (Callgraph.build prog) in
  (* both get interfaces; intra-SCC calls stay unrewired but nothing
     crashes and SSA holds *)
  Alcotest.(check bool) "rec1 iface" true (Hashtbl.mem res.ifaces "rec1");
  Alcotest.(check bool) "rec2 iface" true (Hashtbl.mem res.ifaces "rec2");
  List.iter
    (fun f -> Alcotest.(check bool) "ssa" true (Ssa.is_ssa f))
    (Prog.functions prog)

let test_ret_rooted_conduit () =
  (* function returns a malloc it also writes: MOD(ret,1) *)
  let prog =
    Helpers.compile
      {|
int* mk(int x) { int *p = malloc(); *p = x; return p; }
void use(int x) { int *p = mk(x); int y = *p; print(y); }
|}
  in
  let res = transform (Callgraph.build prog) in
  let mk_iface = Hashtbl.find res.ifaces "mk" in
  Alcotest.(check bool) "ret-rooted mod" true
    (List.exists (fun (q, r, _) -> q = 0 && r = 1) mk_iface.T.mod_paths);
  (* the caller's load of *p resolves to the conduit receiver *)
  let pta = Hashtbl.find res.ptas "use" in
  let use = Helpers.func prog "use" in
  let resolved = ref false in
  Func.iter_stmts use (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Load (_, _, 1) -> (
        match Hashtbl.find_opt pta.Pinpoint_pta.Pta.load_res s.Stmt.sid with
        | Some entries -> if entries <> [] then resolved := true
        | None -> ())
      | _ -> ());
  Alcotest.(check bool) "caller sees stored value" true !resolved

let test_conduit_cap () =
  let old = !T.max_conduits in
  T.max_conduits := 1;
  let prog =
    Helpers.compile
      "void f(int **a, int **b) { int *x = *a; int *y = *b; print(*x); print(*y); }"
  in
  let res = transform (Callgraph.build prog) in
  let iface = Hashtbl.find res.ifaces "f" in
  Alcotest.(check bool) "capped" true (List.length iface.T.ref_paths <= 1);
  T.max_conduits := old

(* --- no final PTA pass where the transform changed nothing --- *)

module Pta = Pinpoint_pta.Pta
module Cell = Pinpoint_pta.Cell
module Obs = Pinpoint_obs.Obs

(* A fresh PTA run mints its incoming values ([in_*]) afresh, so those
   are matched by name; every other variable by identity. *)
let var_key (v : Var.t) =
  if String.starts_with ~prefix:"in_" v.Var.name then v.Var.name
  else Printf.sprintf "%s#%d" v.Var.name v.Var.vid

let cell_key = function
  | Cell.CAlloc sid -> Printf.sprintf "alloc@%d" sid
  | Cell.CDeref v -> "*" ^ var_key v

let fingerprint (t : Pta.t) =
  let sorted tbl f =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])
  in
  let id (e : Pinpoint_smt.Expr.t) = e.Pinpoint_smt.Expr.id in
  let operand = function
    | Stmt.Ovar v -> var_key v
    | o -> Format.asprintf "%a" Stmt.pp_operand o
  in
  ( sorted t.Pta.load_res
      (List.map (fun (e : Pta.entry) -> (operand e.Pta.value, id e.Pta.cond, e.Pta.store_sid))),
    sorted t.Pta.store_tgts (List.map (fun (c, k) -> (cell_key c, id k))),
    t.Pta.refs,
    t.Pta.mods,
    List.map (fun (c, k, sid) -> (cell_key c, id k, sid)) t.Pta.freed_cells )

let pta_spans spans ~fn ~stage =
  List.length
    (List.filter
       (fun (s : Obs.span) ->
         s.Obs.name = "pta"
         && List.assoc_opt "fn" s.Obs.attrs = Some fn
         && List.assoc_opt "stage" s.Obs.attrs = Some stage)
       spans)

(* For every function whose discovered interface has no REF and no MOD
   path: exposing it leaves the IR as it is, the published PTA is what a
   final pass would compute, and no final pass ran.  Every other function
   gets exactly one final pass. *)
let test_final_pass_skip () =
  let dir = Test_corpus.corpus_dir () in
  let sources =
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".mc")
    |> List.sort compare
    |> List.map (fun n -> Test_store.read_file (Filename.concat dir n)))
    @ [
        (Pinpoint_workload.Gen.generate ~name:"skip.mc"
           (Pinpoint_workload.Gen.scaled ~seed:5 ~mloc:0.005 ()))
          .Pinpoint_workload.Gen.source;
      ]
  in
  let skipped = ref 0 and run = ref 0 in
  List.iter
    (fun src ->
      let prog = Helpers.compile src in
      let level = Obs.level () in
      Obs.reset ();
      Obs.set_level Obs.Trace;
      let res, spans =
        Fun.protect
          ~finally:(fun () ->
            Obs.set_level level;
            Obs.reset ())
          (fun () ->
            let res = transform (Callgraph.build prog) in
            (res, Obs.spans ()))
      in
      List.iter
        (fun (f : Func.t) ->
          let fn = f.Func.fname in
          let iface = Hashtbl.find res.ifaces fn in
          let empty = iface.T.ref_paths = [] && iface.T.mod_paths = [] in
          Alcotest.(check int) (fn ^ ": one discover pass") 1
            (pta_spans spans ~fn ~stage:"discover");
          Alcotest.(check int) (fn ^ ": final passes")
            (if empty then 0 else 1)
            (pta_spans spans ~fn ~stage:"final");
          if empty then begin
            incr skipped;
            let ir = Format.asprintf "%a" Func.pp f in
            let fresh = Pta.run f in
            let again = T.expose_side_effects f fresh in
            Alcotest.(check bool) (fn ^ ": still no conduit") true
              (again.T.ref_paths = [] && again.T.mod_paths = []);
            Alcotest.(check string) (fn ^ ": IR unchanged") ir
              (Format.asprintf "%a" Func.pp f);
            Alcotest.(check bool) (fn ^ ": published PTA = a fresh run") true
              (fingerprint (Hashtbl.find res.ptas fn) = fingerprint fresh)
          end
          else incr run)
        (Prog.functions prog))
    sources;
  Alcotest.(check bool) "both kinds met" true (!skipped > 0 && !run > 0)

let suite =
  [
    Alcotest.test_case "aux formal/return inserted" `Quick test_aux_formal_inserted;
    Alcotest.test_case "call site rewritten" `Quick test_call_site_rewritten;
    Alcotest.test_case "ssa preserved" `Quick test_ssa_preserved;
    Alcotest.test_case "transitive side effects" `Quick test_transitive_side_effects;
    Alcotest.test_case "recursion safe" `Quick test_recursion_no_explosion;
    Alcotest.test_case "return-rooted conduit" `Quick test_ret_rooted_conduit;
    Alcotest.test_case "conduit cap" `Quick test_conduit_cap;
    Alcotest.test_case "no final pass over an unchanged body" `Quick
      test_final_pass_skip;
  ]
