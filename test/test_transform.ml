(* Tests for the connector-model transformation (paper §3.1.2, Fig. 3). *)

open Pinpoint_ir
module T = Pinpoint_transform.Transform

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
  let res = T.run (Callgraph.build prog) in
  let bar = Helpers.func prog "bar" in
  let iface = Hashtbl.find res.T.ifaces "bar" in
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
  let _ = T.run (Callgraph.build prog) in
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
  let _ = T.run (Callgraph.build prog) in
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
  let res = T.run (Callgraph.build prog) in
  let g_iface = Hashtbl.find res.T.ifaces "g" in
  let h_iface = Hashtbl.find res.T.ifaces "h" in
  Alcotest.(check int) "g mods" 1 (List.length g_iface.T.mod_paths);
  Alcotest.(check int) "h inherits the mod" 1 (List.length h_iface.T.mod_paths);
  (* and top's load of *h0 resolves to the receiver conduit *)
  let pta = Hashtbl.find res.T.ptas "top" in
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
  let res = T.run (Callgraph.build prog) in
  (* both get interfaces; intra-SCC calls stay unrewired but nothing
     crashes and SSA holds *)
  Alcotest.(check bool) "rec1 iface" true (Hashtbl.mem res.T.ifaces "rec1");
  Alcotest.(check bool) "rec2 iface" true (Hashtbl.mem res.T.ifaces "rec2");
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
  let res = T.run (Callgraph.build prog) in
  let mk_iface = Hashtbl.find res.T.ifaces "mk" in
  Alcotest.(check bool) "ret-rooted mod" true
    (List.exists (fun (q, r, _) -> q = 0 && r = 1) mk_iface.T.mod_paths);
  (* the caller's load of *p resolves to the conduit receiver *)
  let pta = Hashtbl.find res.T.ptas "use" in
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
  let res = T.run (Callgraph.build prog) in
  let iface = Hashtbl.find res.T.ifaces "f" in
  Alcotest.(check bool) "capped" true (List.length iface.T.ref_paths <= 1);
  T.max_conduits := old

let suite =
  [
    Alcotest.test_case "aux formal/return inserted" `Quick test_aux_formal_inserted;
    Alcotest.test_case "call site rewritten" `Quick test_call_site_rewritten;
    Alcotest.test_case "ssa preserved" `Quick test_ssa_preserved;
    Alcotest.test_case "transitive side effects" `Quick test_transitive_side_effects;
    Alcotest.test_case "recursion safe" `Quick test_recursion_no_explosion;
    Alcotest.test_case "return-rooted conduit" `Quick test_ret_rooted_conduit;
    Alcotest.test_case "conduit cap" `Quick test_conduit_cap;
  ]
