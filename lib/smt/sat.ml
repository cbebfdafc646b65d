(* CDCL SAT core.

   A conflict-driven clause-learning solver in the MiniSat lineage:

   - two-watched-literal propagation over a flat [int array] clause arena
     (no per-clause list scans, no allocation on the propagation path);
   - 1UIP conflict analysis producing one learned clause per conflict,
     with non-chronological backjumping to the clause's assertion level;
   - EVSIDS variable activities (bump on resolution, geometric decay)
     driving decisions through an indexed binary max-heap, with phase
     saving (initial phase [true], mirroring the old DPLL's
     try-true-first order);
   - Luby-sequence restarts (base interval 64 conflicts);
   - LBD-scored learned-clause DB reduction, protecting reason ("locked")
     and glue (LBD <= 2) clauses.

   The solver is incremental: clauses may be added between [solve] calls
   (learned clauses and saved phases persist), and [solve] accepts
   assumption literals MiniSat-style, so the lazy DPLL(T) loop and the
   degradation ladder can re-query the same instance instead of
   rebuilding the CNF.

   [budget] counts conflicts (the CDCL-native effort measure); the old
   core counted decisions.  The wall-clock deadline is polled in the
   propagation loop at points where the watch lists are consistent, so a
   Timeout escape leaves the instance reusable.

   The pre-CDCL chronological DPLL survives as test/sat_ref.ml, the oracle
   the tests cross-check this core against. *)

module Metrics = Pinpoint_util.Metrics

type result = Sat of bool array | Unsat

type counts = {
  propagations : int;
  decisions : int;
  conflicts : int;
  learned : int;
  restarts : int;
}

let default_budget = 200_000

(* ------------------------------------------------------------------ *)
(* Growable int vector (watch lists, learned-clause index)             *)
(* ------------------------------------------------------------------ *)

type ivec = { mutable a : int array; mutable n : int }

let ivec_make () = { a = [||]; n = 0 }

let ipush v x =
  if v.n = Array.length v.a then begin
    let a' = Array.make (max 8 (2 * Array.length v.a)) 0 in
    Array.blit v.a 0 a' 0 v.n;
    v.a <- a'
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

(* ------------------------------------------------------------------ *)
(* Solver state                                                        *)
(* ------------------------------------------------------------------ *)

(* Clauses live in one growable arena [ca]: a clause reference [c] points
   at a 2-int header — [ca.(c)] is the LBD tag (0 = original clause,
   > 0 = learned clause's glue score, -1 = deleted), [ca.(c+1)] the size —
   followed by the literals at [ca.(c+2) ..].  The two watched literals
   are always at positions 0 and 1; for any clause acting as a reason,
   the implied literal is at position 0 (conflict analysis relies on
   this). *)

type t = {
  mutable n_vars : int;
  mutable cap : int; (* variable capacity arrays are sized for *)
  mutable ca : int array; (* clause arena *)
  mutable ca_n : int;
  mutable watches : ivec array; (* lit index -> clause refs watching it *)
  mutable assign : int array; (* var -> 0 unassigned / 1 true / -1 false *)
  mutable var_level : int array;
  mutable var_reason : int array; (* clause ref, or -1 for decisions *)
  mutable phase : bool array; (* saved phase; initially true *)
  mutable activity : float array;
  mutable heap : int array; (* binary max-heap of candidate vars *)
  mutable heap_n : int;
  mutable heap_pos : int array; (* var -> heap slot, -1 if absent *)
  mutable trail : int array; (* assigned literals in order *)
  mutable trail_n : int;
  lim : ivec; (* trail_n at each decision level; lim.n = current level *)
  mutable qhead : int;
  mutable seen : bool array; (* conflict-analysis scratch *)
  mutable lev_mark : int array; (* LBD-count scratch, stamped *)
  mutable lev_stamp : int;
  learnts : ivec; (* refs of live learned clauses *)
  mutable var_inc : float;
  mutable max_learnts : int;
  mutable ok : bool; (* false once level-0 unsat *)
  mutable s_propagations : int;
  mutable s_decisions : int;
  mutable s_conflicts : int;
  mutable s_learned : int;
  mutable s_restarts : int;
}

let widx lit = (2 * abs lit) + if lit < 0 then 1 else 0

let create () =
  {
    n_vars = 0;
    cap = 0;
    ca = Array.make 256 0;
    ca_n = 0;
    watches = [||];
    assign = [||];
    var_level = [||];
    var_reason = [||];
    phase = [||];
    activity = [||];
    heap = [||];
    heap_n = 0;
    heap_pos = [||];
    trail = [||];
    trail_n = 0;
    lim = ivec_make ();
    qhead = 0;
    seen = [||];
    lev_mark = [||];
    lev_stamp = 0;
    learnts = ivec_make ();
    var_inc = 1.0;
    max_learnts = 2048;
    ok = true;
    s_propagations = 0;
    s_decisions = 0;
    s_conflicts = 0;
    s_learned = 0;
    s_restarts = 0;
  }

let value t lit =
  let s = t.assign.(abs lit) in
  if lit > 0 then s else -s

(* -- VSIDS heap: max-heap on activity, lower var id breaks ties so the
   search is fully deterministic. ----------------------------------- *)

let heap_lt t v w =
  t.activity.(v) > t.activity.(w)
  || (t.activity.(v) = t.activity.(w) && v < w)

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt t t.heap.(i) t.heap.(p) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(p);
      t.heap.(p) <- tmp;
      t.heap_pos.(t.heap.(i)) <- i;
      t.heap_pos.(t.heap.(p)) <- p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < t.heap_n && heap_lt t t.heap.(l) t.heap.(!m) then m := l;
  if r < t.heap_n && heap_lt t t.heap.(r) t.heap.(!m) then m := r;
  if !m <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!m);
    t.heap.(!m) <- tmp;
    t.heap_pos.(t.heap.(i)) <- i;
    t.heap_pos.(t.heap.(!m)) <- !m;
    heap_down t !m
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap.(t.heap_n) <- v;
    t.heap_pos.(v) <- t.heap_n;
    t.heap_n <- t.heap_n + 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_n <- t.heap_n - 1;
  t.heap.(0) <- t.heap.(t.heap_n);
  t.heap_pos.(t.heap.(0)) <- 0;
  t.heap_pos.(v) <- -1;
  if t.heap_n > 0 then heap_down t 0;
  v

(* -- Variable bookkeeping ------------------------------------------ *)

let grow_vars t want =
  if want > t.cap then begin
    let cap = max 16 (max want (2 * t.cap)) in
    let copy_arr mk old default =
      let a = mk (cap + 1) default in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    t.assign <- copy_arr Array.make t.assign 0;
    t.var_level <- copy_arr Array.make t.var_level 0;
    t.var_reason <-
      (let a = Array.make (cap + 1) (-1) in
       Array.blit t.var_reason 0 a 0 (Array.length t.var_reason);
       a);
    t.phase <- copy_arr Array.make t.phase true;
    t.activity <- copy_arr Array.make t.activity 0.0;
    t.heap <- copy_arr Array.make t.heap 0;
    t.heap_pos <-
      (let a = Array.make (cap + 1) (-1) in
       Array.blit t.heap_pos 0 a 0 (Array.length t.heap_pos);
       a);
    t.trail <- copy_arr Array.make t.trail 0;
    t.seen <- copy_arr Array.make t.seen false;
    t.lev_mark <- copy_arr Array.make t.lev_mark 0;
    let w = Array.make ((2 * cap) + 2) (ivec_make ()) in
    Array.blit t.watches 0 w 0 (Array.length t.watches);
    for i = Array.length t.watches to Array.length w - 1 do
      w.(i) <- ivec_make ()
    done;
    t.watches <- w;
    t.cap <- cap
  end

let new_var t =
  let v = t.n_vars + 1 in
  grow_vars t v;
  t.n_vars <- v;
  heap_insert t v;
  v

let ensure_vars t n =
  while t.n_vars < n do
    ignore (new_var t)
  done

(* -- Trail --------------------------------------------------------- *)

let enqueue t lit reason =
  let v = abs lit in
  t.assign.(v) <- (if lit > 0 then 1 else -1);
  t.var_level.(v) <- t.lim.n;
  t.var_reason.(v) <- reason;
  t.trail.(t.trail_n) <- lit;
  t.trail_n <- t.trail_n + 1

let cancel_until t lev =
  if t.lim.n > lev then begin
    let stop = t.lim.a.(lev) in
    for i = t.trail_n - 1 downto stop do
      let lit = t.trail.(i) in
      let v = abs lit in
      t.phase.(v) <- lit > 0;
      t.assign.(v) <- 0;
      t.var_reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_n <- stop;
    if t.qhead > stop then t.qhead <- stop;
    t.lim.n <- lev
  end

(* -- Clause arena -------------------------------------------------- *)

let alloc_clause t lits lbd =
  let sz = Array.length lits in
  let need = t.ca_n + sz + 2 in
  if need > Array.length t.ca then begin
    let a = Array.make (max need (2 * Array.length t.ca)) 0 in
    Array.blit t.ca 0 a 0 t.ca_n;
    t.ca <- a
  end;
  let c = t.ca_n in
  t.ca.(c) <- lbd;
  t.ca.(c + 1) <- sz;
  Array.blit lits 0 t.ca (c + 2) sz;
  t.ca_n <- need;
  c

let attach_clause t c =
  ipush t.watches.(widx (-t.ca.(c + 2))) c;
  ipush t.watches.(widx (-t.ca.(c + 3))) c

(* Adding a clause backtracks to level 0 and simplifies against the
   level-0 assignment: satisfied clauses and tautologies are dropped,
   false literals removed, units enqueued (propagated lazily by the next
   [solve], which rewinds [qhead]). *)
let add_clause t lits =
  if t.ok then begin
    cancel_until t 0;
    t.qhead <- 0;
    List.iter (fun l -> ensure_vars t (abs l)) lits;
    let kept = ref [] and n_kept = ref 0 in
    let satisfied = ref false in
    List.iter
      (fun l ->
        if not !satisfied then
          match value t l with
          | 1 -> satisfied := true
          | -1 -> ()
          | _ ->
            if List.mem (-l) !kept then satisfied := true (* tautology *)
            else if not (List.mem l !kept) then begin
              kept := l :: !kept;
              incr n_kept
            end)
      lits;
    if not !satisfied then
      match List.rev !kept with
      | [] -> t.ok <- false
      | [ l ] -> enqueue t l (-1)
      | l0 :: l1 :: _ as ls ->
        ignore l0;
        ignore l1;
        let c = alloc_clause t (Array.of_list ls) 0 in
        attach_clause t c
  end

(* -- Propagation: two watched literals ----------------------------- *)

(* Returns the conflicting clause ref, or -1.  The deadline is polled at
   the head of each literal's watch pass — a point where every watch
   list is consistent, so a Timeout escape leaves the solver reusable
   (the next call rewinds [qhead] after backtracking). *)
let propagate t deadline =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_n do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.s_propagations <- t.s_propagations + 1;
    if t.s_propagations land 255 = 0 then Metrics.check deadline;
    let ws = t.watches.(widx p) in
    let i = ref 0 and j = ref 0 in
    let false_lit = -p in
    while !i < ws.n do
      let c = ws.a.(!i) in
      incr i;
      if t.ca.(c) >= 0 then begin
        (* ensure the false literal sits at position 1 *)
        if t.ca.(c + 2) = false_lit then begin
          t.ca.(c + 2) <- t.ca.(c + 3);
          t.ca.(c + 3) <- false_lit
        end;
        let first = t.ca.(c + 2) in
        if value t first = 1 then begin
          (* clause satisfied: keep the watch *)
          ws.a.(!j) <- c;
          incr j
        end
        else begin
          (* look for a new literal to watch *)
          let sz = t.ca.(c + 1) in
          let k = ref (c + 4) in
          let stop = c + 2 + sz in
          while !k < stop && value t t.ca.(!k) = -1 do
            incr k
          done;
          if !k < stop then begin
            (* found one: move it into the watch slot *)
            t.ca.(c + 3) <- t.ca.(!k);
            t.ca.(!k) <- false_lit;
            ipush t.watches.(widx (-t.ca.(c + 3))) c
          end
          else begin
            (* clause is unit or conflicting under the assignment *)
            ws.a.(!j) <- c;
            incr j;
            if value t first = -1 then begin
              conflict := c;
              t.qhead <- t.trail_n;
              while !i < ws.n do
                ws.a.(!j) <- ws.a.(!i);
                incr j;
                incr i
              done
            end
            else enqueue t first c
          end
        end
      end
    done;
    ws.n <- !j
  done;
  !conflict

(* -- EVSIDS -------------------------------------------------------- *)

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.n_vars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

let var_decay t = t.var_inc <- t.var_inc /. 0.95

(* -- Conflict analysis (first UIP) --------------------------------- *)

(* Returns the learned clause (asserting literal first, a literal of the
   second-highest level at position 1), the backjump level and the LBD. *)
let analyze t confl =
  let learnt = ivec_make () in
  ipush learnt 0 (* slot for the asserting literal *);
  let path = ref 0 in
  let p = ref 0 in
  let idx = ref (t.trail_n - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    let start = if !p = 0 then 0 else 1 in
    let sz = t.ca.(!c + 1) in
    for jj = start to sz - 1 do
      let q = t.ca.(!c + 2 + jj) in
      let v = abs q in
      if (not t.seen.(v)) && t.var_level.(v) > 0 then begin
        t.seen.(v) <- true;
        var_bump t v;
        if t.var_level.(v) >= t.lim.n then incr path else ipush learnt q
      end
    done;
    while not t.seen.(abs t.trail.(!idx)) do
      decr idx
    done;
    p := t.trail.(!idx);
    decr idx;
    t.seen.(abs !p) <- false;
    decr path;
    if !path > 0 then c := t.var_reason.(abs !p) else continue := false
  done;
  learnt.a.(0) <- - !p;
  (* clear scratch marks for the lower-level literals *)
  for i = 1 to learnt.n - 1 do
    t.seen.(abs learnt.a.(i)) <- false
  done;
  (* backjump level = highest level among the non-asserting literals;
     move one such literal to position 1 so it can be watched *)
  let bt =
    if learnt.n = 1 then 0
    else begin
      let m = ref 1 in
      for i = 2 to learnt.n - 1 do
        if t.var_level.(abs learnt.a.(i)) > t.var_level.(abs learnt.a.(!m))
        then m := i
      done;
      let tmp = learnt.a.(1) in
      learnt.a.(1) <- learnt.a.(!m);
      learnt.a.(!m) <- tmp;
      t.var_level.(abs learnt.a.(1))
    end
  in
  (* LBD: number of distinct decision levels in the learned clause *)
  t.lev_stamp <- t.lev_stamp + 1;
  let lbd = ref 0 in
  for i = 0 to learnt.n - 1 do
    let lev = t.var_level.(abs learnt.a.(i)) in
    if t.lev_mark.(lev) <> t.lev_stamp then begin
      t.lev_mark.(lev) <- t.lev_stamp;
      incr lbd
    end
  done;
  (Array.sub learnt.a 0 learnt.n, bt, !lbd)

(* -- Learned-clause DB reduction ----------------------------------- *)

let locked t c =
  let l = t.ca.(c + 2) in
  value t l = 1 && t.var_reason.(abs l) = c

(* Drop the worse half of the learned clauses, keeping glue clauses
   (LBD <= 2) and clauses currently acting as reasons.  Deletion just
   tags the header; watch lists skip dead clauses lazily. *)
let reduce_db t =
  let live = Array.sub t.learnts.a 0 t.learnts.n in
  (* worst first: high LBD, then large, then younger (higher ref) *)
  Array.sort
    (fun c1 c2 ->
      let k = compare t.ca.(c2) t.ca.(c1) in
      if k <> 0 then k
      else
        let k = compare t.ca.(c2 + 1) t.ca.(c1 + 1) in
        if k <> 0 then k else compare c2 c1)
    live;
  let target = Array.length live / 2 in
  let removed = ref 0 in
  Array.iter
    (fun c ->
      if !removed < target && t.ca.(c) > 2 && not (locked t c) then begin
        t.ca.(c) <- -1;
        incr removed
      end)
    live;
  let n = t.learnts.n in
  t.learnts.n <- 0;
  for i = 0 to n - 1 do
    let c = t.learnts.a.(i) in
    if t.ca.(c) >= 0 then ipush t.learnts c
  done;
  t.max_learnts <- t.max_learnts + (t.max_learnts / 2)

(* -- Luby restart sequence ----------------------------------------- *)

let luby i =
  (* value of the Luby sequence (1,1,2,1,1,2,4,...) at index i >= 0 *)
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i and sz = ref !size in
  while !sz - 1 <> !x do
    sz := (!sz - 1) / 2;
    decr seq;
    x := !x mod !sz
  done;
  1 lsl !seq

let restart_interval k = 64 * luby k

(* -- Search -------------------------------------------------------- *)

type outcome = O_sat of bool array | O_unsat | O_budget

let record_learnt t lits lbd =
  t.s_learned <- t.s_learned + 1;
  if Array.length lits = 1 then enqueue t lits.(0) (-1)
  else begin
    let c = alloc_clause t lits lbd in
    attach_clause t c;
    ipush t.learnts c;
    enqueue t lits.(0) c
  end

let search t ~budget ~assumps ~deadline =
  let conflicts0 = t.s_conflicts in
  let since_restart = ref 0 in
  let restart_k = ref 0 in
  let restart_lim = ref (restart_interval 0) in
  let n_assumps = Array.length assumps in
  let out = ref None in
  while !out = None do
    let confl = propagate t deadline in
    if confl >= 0 then begin
      t.s_conflicts <- t.s_conflicts + 1;
      incr since_restart;
      if t.lim.n = 0 then begin
        t.ok <- false;
        out := Some O_unsat
      end
      else if t.s_conflicts - conflicts0 > budget then out := Some O_budget
      else begin
        let lits, bt, lbd = analyze t confl in
        (* a backjump below the assumption levels is fine: the decision
           loop re-establishes any unassigned assumptions before
           branching *)
        cancel_until t bt;
        record_learnt t lits lbd;
        var_decay t
      end
    end
    else if !since_restart >= !restart_lim then begin
      t.s_restarts <- t.s_restarts + 1;
      incr restart_k;
      restart_lim := restart_interval !restart_k;
      since_restart := 0;
      cancel_until t 0
    end
    else begin
      if t.learnts.n >= t.max_learnts then reduce_db t;
      if t.lim.n < n_assumps then begin
        (* (re-)establish the next assumption as its own decision level *)
        let p = assumps.(t.lim.n) in
        match value t p with
        | 1 -> ipush t.lim t.trail_n (* dummy level: already true *)
        | -1 -> out := Some O_unsat (* unsat under assumptions *)
        | _ ->
          ipush t.lim t.trail_n;
          enqueue t p (-1)
      end
      else begin
        (* pick a branching variable *)
        let v = ref 0 in
        while !v = 0 && t.heap_n > 0 do
          let w = heap_pop t in
          if t.assign.(w) = 0 then v := w
        done;
        if !v = 0 then begin
          let model = Array.make (t.n_vars + 1) false in
          for i = 1 to t.n_vars do
            model.(i) <- t.assign.(i) = 1
          done;
          out := Some (O_sat model)
        end
        else begin
          t.s_decisions <- t.s_decisions + 1;
          ipush t.lim t.trail_n;
          enqueue t (if t.phase.(!v) then !v else - !v) (-1)
        end
      end
    end
  done;
  Option.get !out

let solve ?(budget = default_budget) ?(assumptions = [])
    ?(deadline = Metrics.no_deadline) t =
  if not t.ok then Some Unsat
  else begin
    Metrics.check deadline;
    List.iter (fun l -> ensure_vars t (abs l)) assumptions;
    (* assumption dummy levels can push the level count past n_vars;
       make sure the level-indexed scratch arrays cover them *)
    grow_vars t (t.n_vars + List.length assumptions + 1);
    cancel_until t 0;
    t.qhead <- 0;
    let assumps = Array.of_list assumptions in
    match search t ~budget ~assumps ~deadline with
    | O_sat model ->
      cancel_until t 0;
      Some (Sat model)
    | O_unsat ->
      cancel_until t 0;
      Some Unsat
    | O_budget ->
      cancel_until t 0;
      None
  end

let counts t =
  {
    propagations = t.s_propagations;
    decisions = t.s_decisions;
    conflicts = t.s_conflicts;
    learned = t.s_learned;
    restarts = t.s_restarts;
  }
