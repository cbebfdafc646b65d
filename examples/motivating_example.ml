(* The paper's motivating example (Figures 1 and 2), end to end.

   Run with:  dune exec examples/motivating_example.exe

   [foo] stores [a] into a heap cell, conditionally lets [bar] replace it
   with a freshly-freed pointer [c] (or lets [qux] overwrite it), then
   dereferences whatever is in the cell.  The only real bug is the flow
   free(c) -> c -> Y -> L -> f -> deref of f, with path condition
   th1 && th3 && th2.

   The example prints the connector-transformed functions (showing the
   Aux formal parameters / Aux return values of Fig. 2), the interfaces,
   the SEG of [bar] in DOT form, and the single use-after-free report. *)

let source =
  {|
void bar(int **q) {
  int *c = malloc();
  bool th3 = *q != null;
  if (th3) {
    *q = c;
    free(c);
  } else {
    int t = input();
    bool th4 = t > 0;
    if (th4) { *q = null; }
  }
}

void qux(int **r) {
  int x = input();
  if (x > 5) { *r = null; } else { *r = null; }
}

void foo(int *a) {
  int **ptr = malloc();
  *ptr = a;
  int th1 = input();
  if (th1 > 0) { bar(ptr); } else { qux(ptr); }
  int *f = *ptr;
  int th2 = input();
  if (th2 > 0) { print(*f); }
}
|}

let () =
  let analysis = Pinpoint.Analysis.prepare_source ~file:"figure2.mc" source in

  Format.printf "=== connector-transformed functions (cf. paper Fig. 2) ===@.";
  List.iter
    (fun (f : Pinpoint_ir.Func.t) ->
      Format.printf "%a@." Pinpoint_ir.Func.pp f;
      match
        Hashtbl.find_opt analysis.Pinpoint.Analysis.ifaces
          f.Pinpoint_ir.Func.fname
      with
      | Some iface ->
        Format.printf "interface: %a@.@." Pinpoint_transform.Transform.pp_iface
          iface
      | None -> ())
    (Pinpoint_ir.Prog.functions analysis.Pinpoint.Analysis.prog);

  (match Pinpoint.Analysis.seg_of analysis "bar" with
  | Some seg ->
    Format.printf "=== SEG of bar (DOT, cf. paper Fig. 4) ===@.%s@."
      (Pinpoint_seg.Seg.dot seg)
  | None -> ());

  Format.printf "=== use-after-free check ===@.";
  let reports, _ =
    Pinpoint.Analysis.check analysis Pinpoint.Checkers.use_after_free
  in
  List.iter
    (fun (r : Pinpoint.Report.t) ->
      Format.printf "%a@." Pinpoint.Report.pp r)
    (List.filter Pinpoint.Report.is_reported reports);

  (* Exactly one bug, through bar, never through qux. *)
  let reported = List.filter Pinpoint.Report.is_reported reports in
  assert (List.length reported = 1);
  assert ((List.hd reported).Pinpoint.Report.source_fn = "bar");
  Format.printf "motivating_example: OK (one report, via bar, as in the paper)@."
