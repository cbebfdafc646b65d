module Prng = Pinpoint_util.Prng
module E = Emitter

type params = {
  seed : int;
  target_loc : int;
  n_units : int;
  n_real_uaf : int;
  n_real_uaf_local : int;
  n_real_df : int;
  n_uaf_traps : int;
  n_hard_traps : int;
  n_shared_core : int;
  n_use_before_free : int;
  n_taint_real : int;
  n_taint_traps : int;
  n_leaks : int;
  with_frees : bool;
  cross_unit : bool;
}

let default_params =
  {
    seed = 1;
    target_loc = 2000;
    n_units = 4;
    n_real_uaf = 1;
    n_real_uaf_local = 0;
    n_real_df = 1;
    n_uaf_traps = 4;
    n_hard_traps = 0;
    n_shared_core = 0;
    n_use_before_free = 2;
    n_taint_real = 1;
    n_taint_traps = 1;
    n_leaks = 0;
    with_frees = true;
    cross_unit = false;
  }

(* MLoC-scale presets: many small units (~4 KLoC each, so per-unit state
   stays bounded and generation is linear in the target), bug counts
   scaled per MLoC, and cross-unit fan-in turned on.  [mloc] may be
   fractional (0.2 = 200 KLoC). *)
let scaled ?(seed = 1) ~mloc () =
  let target_loc = int_of_float (mloc *. 1_000_000.0) in
  let per_mloc n = max 1 (int_of_float (mloc *. float_of_int n)) in
  {
    seed;
    target_loc;
    n_units = max 8 (target_loc / 4000);
    n_real_uaf = per_mloc 40;
    n_real_uaf_local = per_mloc 10;
    n_real_df = per_mloc 30;
    n_uaf_traps = per_mloc 120;
    n_hard_traps = per_mloc 20;
    n_shared_core = per_mloc 10;
    n_use_before_free = per_mloc 60;
    n_taint_real = per_mloc 30;
    n_taint_traps = per_mloc 30;
    n_leaks = per_mloc 20;
    with_frees = true;
    cross_unit = true;
  }

type subject = {
  name : string;
  source : string;
  truth : Truth.planted list;
  loc : int;
}

type gen = {
  em : E.t;
  rng : Prng.t;
  mutable truth : Truth.planted list;
  mutable fcount : int;
  (* filler functions callable from later filler, per unit:
     (name, takes_ptr, returns_ptr) *)
  mutable callable : (string * bool * bool) list;
  (* bounded sample of earlier units' filler functions ([cross_unit]
     fan-in); kept short so picking a callee stays O(1) at any scale *)
  mutable exports : (string * bool * bool) list;
}

let plant g ~kind ~fname ~line ~real ~descr =
  g.truth <-
    { Truth.kind; fname; source_line = line; real; descr } :: g.truth

let fresh_name g prefix =
  g.fcount <- g.fcount + 1;
  Printf.sprintf "%s_%d" prefix g.fcount

(* ---------- shared container helpers ----------

   Real code bases route pointers through generic utilities (pools, lists,
   hash tables).  A context-insensitive points-to analysis conflates every
   call site of these helpers — every value ever stored through
   [shared_put] appears at every [shared_get] — which is precisely the
   "pointer trap" super-linear blow-up of Figures 7/8.  Pinpoint's
   connector model keeps the call sites apart. *)

let emit_shared_helpers g =
  ignore (E.linef g.em "void shared_put(int **slot, int *v) {");
  ignore (E.linef g.em "  *slot = v;");
  ignore (E.linef g.em "}");
  ignore (E.linef g.em "int* shared_get(int **slot) {");
  ignore (E.linef g.em "  int *r = *slot;");
  ignore (E.linef g.em "  return r;");
  ignore (E.linef g.em "}");
  (* a virtual hook group, dispatched CHA-style from filler code *)
  ignore (E.linef g.em "method \"hook\" int hook_a(int x) { return x + 1; }");
  ignore (E.linef g.em "method \"hook\" int hook_b(int x) { return x * 2; }");
  ignore (E.linef g.em "method \"hook\" int hook_c(int x) { return x - 3; }");
  E.blank g.em

(* ---------- filler ---------- *)

(* A filler function: pointer and integer churn with branches, optional
   safe malloc/use/free, and calls to earlier filler functions. *)
let filler_function g ~unit_tag ~with_frees =
  let name = fresh_name g (unit_tag ^ "_fill") in
  let rng = g.rng in
  let takes_ptr = Prng.chance rng 0.7 in
  let returns_ptr = Prng.chance rng 0.4 in
  let params = if takes_ptr then "int *p, int x" else "int x" in
  let ret_ty = if returns_ptr then "int*" else "int" in
  ignore (E.linef g.em "%s %s(%s) {" ret_ty name params);
  let n_ints = ref 1 (* x *) and n_ptrs = ref (if takes_ptr then 1 else 0) in
  let int_var i = if i = 0 then "x" else Printf.sprintf "v%d" i in
  let ptr_var i = if i = 0 && takes_ptr then "p" else Printf.sprintf "q%d" i in
  let rand_int_var () = int_var (Prng.int rng !n_ints) in
  let body_len = Prng.in_range rng 6 16 in
  let mallocs = ref [] in
  for _ = 1 to body_len do
    match Prng.int rng 12 with
    | 0 | 1 | 2 ->
      (* integer arithmetic *)
      let rhs = rand_int_var () in
      let v = !n_ints in
      incr n_ints;
      ignore
        (E.linef g.em "  int %s = %s %s %d;" (int_var v) rhs
           (Prng.choose rng [| "+"; "-"; "*" |])
           (Prng.in_range rng 1 9))
    | 3 ->
      (* malloc + store *)
      let q = !n_ptrs in
      incr n_ptrs;
      ignore (E.linef g.em "  int *%s = malloc();" (ptr_var q));
      ignore (E.linef g.em "  *%s = %s;" (ptr_var q) (rand_int_var ()));
      mallocs := ptr_var q :: !mallocs
    | 4 when !n_ptrs > 0 ->
      (* load *)
      let v = !n_ints in
      incr n_ints;
      ignore
        (E.linef g.em "  int %s = *%s;" (int_var v)
           (ptr_var (Prng.int rng !n_ptrs)))
    | 5 ->
      (* branch with integer guard *)
      let guard = rand_int_var () and rhs = rand_int_var () in
      let v = !n_ints in
      incr n_ints;
      ignore (E.linef g.em "  int %s = 0;" (int_var v));
      ignore
        (E.linef g.em "  if (%s > %d) { %s = %s + 1; } else { %s = %d; }" guard
           (Prng.in_range rng 0 20)
           (int_var v) rhs (int_var v)
           (Prng.in_range rng 0 5))
    | 6 when g.callable <> [] ->
      (* call an earlier filler function *)
      let callee, c_takes_ptr, c_returns_ptr = Prng.choose_list rng g.callable in
      let arg =
        if c_takes_ptr then
          if !n_ptrs > 0 then
            Printf.sprintf "%s, %s" (ptr_var (Prng.int rng !n_ptrs)) (rand_int_var ())
          else Printf.sprintf "malloc(), %s" (rand_int_var ())
        else rand_int_var ()
      in
      if c_returns_ptr then begin
        let q = !n_ptrs in
        incr n_ptrs;
        ignore (E.linef g.em "  int *%s = %s(%s);" (ptr_var q) callee arg)
      end
      else begin
        let v = !n_ints in
        incr n_ints;
        ignore (E.linef g.em "  int %s = %s(%s);" (int_var v) callee arg)
      end
    | 8 | 9 when !n_ptrs > 0 ->
      (* route a pointer through the shared container helpers *)
      let v0 = ptr_var (Prng.int rng !n_ptrs) in
      let slot = Printf.sprintf "slot%d" !n_ptrs in
      let q = !n_ptrs in
      incr n_ptrs;
      ignore (E.linef g.em "  int **%s = malloc();" slot);
      ignore (E.linef g.em "  shared_put(%s, %s);" slot v0);
      ignore (E.linef g.em "  int *%s = shared_get(%s);" (ptr_var q) slot)
    | 10 when Prng.chance rng 0.3 ->
      (* virtual dispatch through the shared hook group *)
      let rhs = rand_int_var () in
      let v = !n_ints in
      incr n_ints;
      ignore (E.linef g.em "  int %s = vcall \"hook\"(%s);" (int_var v) rhs)
    | 10 | 11 when !n_ptrs > 0 ->
      (* φ-chain with contradictory gates: the value reaching m2 through
         both merges carries the condition g ∧ ¬g, which the quasi
         path-sensitive points-to analysis prunes with the linear-time
         solver (§3.1.1's "easy" unsatisfiable conditions). *)
      let a0 = ptr_var (Prng.int rng !n_ptrs) in
      (* unique non-pool name: must not collide with the int_var pool *)
      let gname = Printf.sprintf "gg%d" (E.current_line g.em) in
      let m1 = !n_ptrs in
      incr n_ptrs;
      let m2 = !n_ptrs in
      incr n_ptrs;
      let hname = gname ^ "h" in
      let mm = Printf.sprintf "mm%s" gname in
      ignore
        (E.linef g.em "  bool %s = %s > %d;" gname (int_var 0)
           (Prng.in_range rng 1 9));
      ignore
        (E.linef g.em "  bool %s = %s > %d;" hname (int_var 0)
           (Prng.in_range rng 10 20));
      ignore (E.linef g.em "  int *%s = %s;" (ptr_var m1) a0);
      ignore (E.linef g.em "  if (%s) { %s = malloc(); }" gname (ptr_var m1));
      (* middle merge on an unrelated guard keeps the complementary pair
         non-adjacent, so only the linear-time P/N solver can prune it *)
      ignore (E.linef g.em "  int *%s = malloc();" mm);
      ignore (E.linef g.em "  if (%s) { %s = %s; }" hname mm (ptr_var m1));
      ignore (E.linef g.em "  int *%s = %s;" (ptr_var m2) a0);
      ignore
        (E.linef g.em "  if (%s) { } else { %s = %s; }" gname (ptr_var m2) mm);
      ignore (E.linef g.em "  print(*%s);" (ptr_var m2))
    | 7 when !n_ptrs > 1 ->
      (* double-pointer juggling *)
      let src = ptr_var (Prng.int rng !n_ptrs) in
      let q = !n_ptrs in
      incr n_ptrs;
      ignore (E.linef g.em "  int **h%d = malloc();" q);
      ignore (E.linef g.em "  *h%d = %s;" q src);
      ignore (E.linef g.em "  int *%s = *h%d;" (ptr_var q) q)
    | _ ->
      let rhs = rand_int_var () in
      let v = !n_ints in
      incr n_ints;
      ignore
        (E.linef g.em "  int %s = %s - %d;" (int_var v) rhs
           (Prng.in_range rng 1 4))
  done;
  (* Pick the returned pointer first so local mallocs freed below never
     escape (frees stay genuinely safe). *)
  let ret_ptr =
    if returns_ptr then
      if !n_ptrs > 0 then Some (ptr_var (Prng.int g.rng !n_ptrs)) else None
    else None
  in
  (* Only pointer-free functions free their mallocs: pointer juggling can
     silently alias a malloc into the returned pointer, which would turn a
     "safe" filler free into an unplanned real bug. *)
  if with_frees && not returns_ptr then
    List.iter
      (fun q ->
        if Prng.chance g.rng 0.5 then begin
          ignore (E.linef g.em "  print(*%s);" q);
          ignore (E.linef g.em "  free(%s);" q)
        end)
      !mallocs;
  (if returns_ptr then
     match ret_ptr with
     | Some q -> ignore (E.linef g.em "  return %s;" q)
     | None -> ignore (E.linef g.em "  return malloc();")
   else ignore (E.linef g.em "  return %s;" (rand_int_var ())));
  ignore (E.linef g.em "}");
  E.blank g.em;
  g.callable <- (name, takes_ptr, returns_ptr) :: g.callable;
  (name, takes_ptr, returns_ptr)

(* ---------- planted patterns ---------- *)

(* Real inter-procedural UAF: a free hidden behind a call chain of random
   depth, then a dereference behind another chain. *)
let real_uaf g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_uaf") in
  let depth = Prng.in_range g.rng 1 3 in
  ignore (E.linef g.em "void %s_free0(int *p) {" base);
  let src = E.linef g.em "  free(p);" in
  ignore (E.linef g.em "}");
  plant g ~kind:"use-after-free" ~fname:(base ^ "_free0") ~line:src ~real:true
    ~descr:(Printf.sprintf "interprocedural UAF depth %d" depth);
  plant g ~kind:"double-free" ~fname:(base ^ "_free0") ~line:src ~real:false
    ~descr:"single free (not a double free)";
  for i = 1 to depth do
    ignore (E.linef g.em "void %s_free%d(int *p) { %s_free%d(p); }" base i base (i - 1))
  done;
  ignore (E.linef g.em "void %s_use(int *p) { print(*p); }" base);
  ignore (E.linef g.em "void %s_main(int s) {" base);
  ignore (E.linef g.em "  int *p = malloc();");
  ignore (E.linef g.em "  *p = s;");
  ignore (E.linef g.em "  %s_free%d(p);" base depth);
  ignore (E.linef g.em "  %s_use(p);" base);
  ignore (E.linef g.em "}");
  E.blank g.em

(* Real heap-mediated UAF (Figure 1 style): the dangling pointer travels
   through a double pointer and a conditional callee. *)
let real_uaf_heap g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_huaf") in
  ignore (E.linef g.em "void %s_evil(int **q) {" base);
  ignore (E.linef g.em "  int *c = malloc();");
  ignore (E.linef g.em "  *c = 5;");
  ignore (E.linef g.em "  bool cnd = *q != null;");
  ignore (E.linef g.em "  if (cnd) {");
  ignore (E.linef g.em "    *q = c;");
  let src = E.linef g.em "    free(c);" in
  ignore (E.linef g.em "  }");
  ignore (E.linef g.em "}");
  plant g ~kind:"use-after-free" ~fname:(base ^ "_evil") ~line:src ~real:true
    ~descr:"heap-mediated UAF through double pointer";
  plant g ~kind:"double-free" ~fname:(base ^ "_evil") ~line:src ~real:false
    ~descr:"single free";
  ignore (E.linef g.em "void %s_main(int *a) {" base);
  ignore (E.linef g.em "  int **ptr = malloc();");
  ignore (E.linef g.em "  *ptr = a;");
  ignore (E.linef g.em "  %s_evil(ptr);" base);
  ignore (E.linef g.em "  int *f = *ptr;");
  ignore (E.linef g.em "  print(*f);");
  ignore (E.linef g.em "}");
  E.blank g.em

(* Real UAF hidden behind virtual dispatch: only one handler in the group
   frees; CHA must look inside all of them. *)
let real_uaf_virtual g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_vuaf") in
  ignore (E.linef g.em "method \"%s_grp\" void %s_ok(int *p) { print(*p); }" base base);
  ignore (E.linef g.em "method \"%s_grp\" void %s_bad(int *p) {" base base);
  let src = E.linef g.em "  free(p);" in
  ignore (E.linef g.em "}");
  plant g ~kind:"use-after-free" ~fname:(base ^ "_bad") ~line:src ~real:true
    ~descr:"UAF behind virtual dispatch";
  plant g ~kind:"double-free" ~fname:(base ^ "_bad") ~line:src ~real:false
    ~descr:"single free behind dispatch";
  ignore (E.linef g.em "void %s_main(int s) {" base);
  ignore (E.linef g.em "  int *p = malloc();");
  ignore (E.linef g.em "  *p = s;");
  ignore (E.linef g.em "  vcall \"%s_grp\"(p);" base);
  ignore (E.linef g.em "  print(*p);");
  ignore (E.linef g.em "}");
  E.blank g.em

(* Real double free across helpers. *)
let real_df g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_df") in
  ignore (E.linef g.em "void %s_rel(int *p) {" base);
  let src = E.linef g.em "  free(p);" in
  ignore (E.linef g.em "}");
  plant g ~kind:"double-free" ~fname:(base ^ "_rel") ~line:src ~real:true
    ~descr:"freed again by caller";
  plant g ~kind:"use-after-free" ~fname:(base ^ "_rel") ~line:src ~real:false
    ~descr:"double free, not a dereference";
  ignore (E.linef g.em "void %s_main(int s) {" base);
  ignore (E.linef g.em "  int *p = malloc();");
  ignore (E.linef g.em "  *p = s;");
  ignore (E.linef g.em "  %s_rel(p);" base);
  ignore (E.linef g.em "  free(p);");
  ignore (E.linef g.em "}");
  E.blank g.em

(* Real intra-procedural UAF: overlapping (feasible) guards in a single
   function — the kind CSA-style symbolic execution also finds. *)
let real_uaf_local g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_luaf") in
  ignore (E.linef g.em "void %s(int s) {" base);
  ignore (E.linef g.em "  int *p = malloc();");
  ignore (E.linef g.em "  *p = s;");
  ignore (E.linef g.em "  bool g1 = s > 0;");
  ignore (E.linef g.em "  if (g1) {");
  let src = E.linef g.em "    free(p);" in
  ignore (E.linef g.em "  }");
  ignore (E.linef g.em "  bool g2 = s > 1;");
  ignore (E.linef g.em "  if (g2) { print(*p); }");
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind:"use-after-free" ~fname:base ~line:src ~real:true
    ~descr:"intra-procedural UAF with overlapping guards";
  plant g ~kind:"double-free" ~fname:base ~line:src ~real:false
    ~descr:"single free"

(* Branch-correlated safe pattern: free under [s > k], use under the
   negation — infeasible together.  Path-insensitive tools flag it. *)
let uaf_trap g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_trap") in
  let k = Prng.in_range g.rng 0 9 in
  ignore (E.linef g.em "void %s(int *p) {" base);
  ignore (E.linef g.em "  int s = input();");
  ignore (E.linef g.em "  bool g1 = s > %d;" k);
  ignore (E.linef g.em "  if (g1) {");
  let src = E.linef g.em "    free(p);" in
  ignore (E.linef g.em "  }");
  ignore (E.linef g.em "  bool g2 = s > %d;" k);
  ignore (E.linef g.em "  bool ng = !g2;");
  ignore (E.linef g.em "  if (ng) { print(*p); }");
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind:"use-after-free" ~fname:base ~line:src ~real:false
    ~descr:"correlated-branch trap (safe)";
  plant g ~kind:"double-free" ~fname:base ~line:src ~real:false
    ~descr:"single conditional free"

(* Correlated double-free trap: two frees in mutually exclusive branches. *)
let df_trap g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_dftrap") in
  ignore (E.linef g.em "void %s(int *p) {" base);
  ignore (E.linef g.em "  int s = input();");
  ignore (E.linef g.em "  bool g = s > 3;");
  ignore (E.linef g.em "  if (g) {");
  let src = E.linef g.em "    free(p);" in
  ignore (E.linef g.em "  }");
  ignore (E.linef g.em "  bool ng = !g;");
  ignore (E.linef g.em "  if (ng) { free(p); }");
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind:"double-free" ~fname:base ~line:src ~real:false
    ~descr:"exclusive-branch double free (safe)";
  plant g ~kind:"use-after-free" ~fname:base ~line:src ~real:false
    ~descr:"exclusive-branch free/free (safe)"

(* Nonlinear trap: the guard x*x < 0 is mathematically infeasible but the
   solver treats x*x as uninterpreted — Pinpoint keeps the report.  This
   models the paper's residual false-positive rate. *)
let hard_trap g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_hard") in
  ignore (E.linef g.em "void %s(int *p, int x) {" base);
  ignore (E.linef g.em "  int y = x * x;");
  ignore (E.linef g.em "  bool neg = y < 0;");
  ignore (E.linef g.em "  if (neg) {");
  let src = E.linef g.em "    free(p);" in
  ignore (E.linef g.em "  }");
  ignore (E.linef g.em "  print(*p);");
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind:"use-after-free" ~fname:base ~line:src ~real:false
    ~descr:"nonlinear guard trap (soundy FP)"

(* Nonlinear taint trap: the tainted value reaches the sink only under a
   mathematically-infeasible nonlinear guard the solver cannot refute —
   the residual taint FP rate of §5.3. *)
let taint_hard_trap g ~unit_tag ~(checker : [ `Path | `Trans ]) =
  let base = fresh_name g (unit_tag ^ "_thard") in
  let source_call, sink_fmt, kind =
    match checker with
    | `Path -> ("input()", Printf.sprintf "  int *h = fopen(%s);", "path-traversal")
    | `Trans -> ("getpass()", Printf.sprintf "  sendto(%s);", "data-transmission")
  in
  ignore (E.linef g.em "void %s(int z) {" base);
  let src = E.linef g.em "  int c = %s;" source_call in
  ignore (E.linef g.em "  int y = z * z;");
  ignore (E.linef g.em "  bool neg = y < 0;");
  ignore (E.linef g.em "  int d = 0;");
  ignore (E.linef g.em "  if (neg) { d = c; }");
  ignore (E.line g.em (sink_fmt "d"));
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind ~fname:base ~line:src ~real:false
    ~descr:"nonlinear taint guard trap (soundy FP)"

(* Shared-core family: one infeasible free guarded by a non-complementary
   guard pair (s < 3 ∧ s > 5 — jointly unsat over ℤ, invisible to the
   P/N-complement linear solver), followed by several uses under distinct
   guards.  Every candidate is a distinct formula (a verdict-cache miss)
   sharing the refuted guard-pair core, so each pays its own full-rung
   solve. *)
let shared_core_trap g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_score") in
  ignore (E.linef g.em "void %s(int *p) {" base);
  ignore (E.linef g.em "  int s = input();");
  ignore (E.linef g.em "  bool lo = s < 3;");
  ignore (E.linef g.em "  bool hi = s > 5;");
  ignore (E.linef g.em "  if (lo) {");
  ignore (E.linef g.em "    if (hi) {");
  let src = E.linef g.em "      free(p);" in
  ignore (E.linef g.em "    }");
  ignore (E.linef g.em "  }");
  ignore (E.linef g.em "  bool u1 = s > 0;");
  ignore (E.linef g.em "  if (u1) { print(*p); }");
  ignore (E.linef g.em "  bool u2 = s > 1;");
  ignore (E.linef g.em "  if (u2) { print(*p); }");
  ignore (E.linef g.em "  bool u3 = s > 2;");
  ignore (E.linef g.em "  if (u3) { print(*p); }");
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind:"use-after-free" ~fname:base ~line:src ~real:false
    ~descr:"disjoint-interval guard pair (shared unsat core)"

(* Use before free: safe by ordering; only flow-insensitive tools flag. *)
let use_before_free g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_ubf") in
  ignore (E.linef g.em "void %s(int s) {" base);
  ignore (E.linef g.em "  int *p = malloc();");
  ignore (E.linef g.em "  *p = s;");
  ignore (E.linef g.em "  print(*p);");
  let src = E.linef g.em "  free(p);" in
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind:"use-after-free" ~fname:base ~line:src ~real:false
    ~descr:"use strictly before free (safe)"

(* Real taint: tainted input reaches a sink through arithmetic and a
   helper call. *)
let taint_real g ~unit_tag ~(checker : [ `Path | `Trans ]) =
  let base = fresh_name g (unit_tag ^ "_taint") in
  let source_call, sink_fmt, kind =
    match checker with
    | `Path -> ("input()", Printf.sprintf "  int *h = fopen(%s);", "path-traversal")
    | `Trans -> ("getpass()", Printf.sprintf "  sendto(%s);", "data-transmission")
  in
  ignore (E.linef g.em "int %s_mix(int d) { int e = d * 3 + 1; return e; }" base);
  ignore (E.linef g.em "void %s(int z) {" base);
  let src = E.linef g.em "  int c = %s;" source_call in
  ignore (E.linef g.em "  int d = c + z;");
  ignore (E.linef g.em "  int e = %s_mix(d);" base);
  ignore (E.line g.em (sink_fmt "e"));
  (match checker with
  | `Path -> ignore (E.linef g.em "  print(*h);")
  | `Trans -> ());
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind ~fname:base ~line:src ~real:true ~descr:"tainted flow to sink"

(* Infeasible taint: the tainted value only reaches the sink variable on a
   branch that contradicts the sink's guard. *)
let taint_trap g ~unit_tag ~(checker : [ `Path | `Trans ]) =
  let base = fresh_name g (unit_tag ^ "_ttrap") in
  let source_call, sink_fmt, kind =
    match checker with
    | `Path -> ("input()", Printf.sprintf "    int *h = fopen(%s);", "path-traversal")
    | `Trans -> ("getpass()", Printf.sprintf "    sendto(%s);", "data-transmission")
  in
  ignore (E.linef g.em "void %s(int z) {" base);
  let src = E.linef g.em "  int c = %s;" source_call in
  ignore (E.linef g.em "  int d = 7;");
  ignore (E.linef g.em "  bool g = z > 2;");
  ignore (E.linef g.em "  if (g) { d = c; }");
  ignore (E.linef g.em "  bool ng = !g;");
  ignore (E.linef g.em "  if (ng) {");
  ignore (E.line g.em (sink_fmt "d"));
  ignore (E.linef g.em "  }");
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind ~fname:base ~line:src ~real:false
    ~descr:"taint only flows on contradictory branch (safe)"

(* Real memory leak: conditionally freed, never on the other branch. *)
let real_leak g ~unit_tag =
  let base = fresh_name g (unit_tag ^ "_leak") in
  ignore (E.linef g.em "void %s(int s) {" base);
  let src = E.linef g.em "  int *buf = malloc();" in
  ignore (E.linef g.em "  *buf = s;");
  ignore (E.linef g.em "  bool ok = s > %d;" (Prng.in_range g.rng 0 9));
  ignore (E.linef g.em "  if (ok) { free(buf); }");
  ignore (E.linef g.em "}");
  E.blank g.em;
  plant g ~kind:"memory-leak" ~fname:base ~line:src ~real:true
    ~descr:"conditional leak"

(* ---------- assembly ---------- *)

let generate ~name (p : params) : subject =
  let g =
    {
      em = E.create ();
      rng = Prng.create p.seed;
      truth = [];
      fcount = 0;
      callable = [];
      exports = [];
    }
  in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  let units = max 1 p.n_units in
  (* Plan how many planted patterns go to each unit (round-robin). *)
  let planted_jobs = ref [] in
  let add_jobs n job = for _ = 1 to n do planted_jobs := job :: !planted_jobs done in
  add_jobs p.n_real_uaf `Real_uaf;
  add_jobs p.n_real_uaf_local `Real_uaf_local;
  add_jobs p.n_real_df `Real_df;
  add_jobs p.n_uaf_traps `Uaf_trap;
  add_jobs (max 0 (p.n_uaf_traps / 2)) `Df_trap;
  add_jobs p.n_hard_traps `Hard_trap;
  add_jobs p.n_shared_core `Shared_core;
  add_jobs p.n_use_before_free `Ubf;
  add_jobs p.n_taint_real `Taint_real_path;
  add_jobs p.n_taint_real `Taint_real_trans;
  add_jobs p.n_taint_traps `Taint_trap_path;
  add_jobs p.n_taint_traps `Taint_trap_trans;
  add_jobs p.n_leaks `Leak;
  let jobs = Array.of_list !planted_jobs in
  Prng.shuffle g.rng jobs;
  let jobs = Array.to_list jobs in
  let unit_of_job = List.mapi (fun i j -> (i mod units, j)) jobs in
  emit_shared_helpers g;
  for u = 0 to units - 1 do
    let tag = Printf.sprintf "u%d" u in
    ignore (E.linef g.em "unit \"unit%d\";" u);
    E.blank g.em;
    (* planted patterns for this unit *)
    List.iter
      (fun (uu, job) ->
        if uu = u then
          match job with
          | `Real_uaf -> (
            match Prng.int g.rng 3 with
            | 0 -> real_uaf g ~unit_tag:tag
            | 1 -> real_uaf_heap g ~unit_tag:tag
            | _ -> real_uaf_virtual g ~unit_tag:tag)
          | `Real_uaf_local -> real_uaf_local g ~unit_tag:tag
          | `Real_df -> real_df g ~unit_tag:tag
          | `Uaf_trap -> uaf_trap g ~unit_tag:tag
          | `Df_trap -> df_trap g ~unit_tag:tag
          | `Hard_trap ->
            hard_trap g ~unit_tag:tag;
            taint_hard_trap g ~unit_tag:tag ~checker:`Path;
            taint_hard_trap g ~unit_tag:tag ~checker:`Trans
          | `Shared_core -> shared_core_trap g ~unit_tag:tag
          | `Ubf -> use_before_free g ~unit_tag:tag
          | `Taint_real_path -> taint_real g ~unit_tag:tag ~checker:`Path
          | `Taint_real_trans -> taint_real g ~unit_tag:tag ~checker:`Trans
          | `Taint_trap_path -> taint_trap g ~unit_tag:tag ~checker:`Path
          | `Taint_trap_trans -> taint_trap g ~unit_tag:tag ~checker:`Trans
          | `Leak -> real_leak g ~unit_tag:tag)
      unit_of_job;
    (* filler to reach the per-unit share of the size target *)
    let unit_target = p.target_loc * (u + 1) / units in
    (* Cross-unit fan-in: seed this unit's callee pool with a bounded
       sample of earlier units' filler, so call chains cross unit
       boundaries the way real code bases' utility layers do. *)
    g.callable <- (if p.cross_unit then take 8 g.exports else []);
    while E.current_line g.em < unit_target do
      ignore (filler_function g ~unit_tag:tag ~with_frees:p.with_frees)
    done;
    if p.cross_unit then g.exports <- take 32 (take 4 g.callable @ g.exports)
  done;
  {
    name;
    source = E.contents g.em;
    truth = List.rev g.truth;
    loc = E.current_line g.em - 1;
  }

let compile (s : subject) =
  Pinpoint_frontend.Lower.compile_string ~file:s.name s.source
