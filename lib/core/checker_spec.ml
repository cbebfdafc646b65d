open Pinpoint_ir
module Seg = Pinpoint_seg.Seg

type t = {
  name : string;
  description : string;
  follow_operands : bool;
  sources : Func.t -> (Var.t * int) list;
  is_sink : Seg.t -> Seg.use -> bool;
  exclude_same_sid : bool;
}

let vf_spec t =
  {
    Pinpoint_summary.Vf.follow_operands = t.follow_operands;
    source_vars = t.sources;
    is_sink_use = t.is_sink;
  }

let recvs_of_calls f names =
  Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
      match s.Stmt.kind with
      | Stmt.Call c when List.mem c.Stmt.callee names -> (
        match c.Stmt.recvs with r :: _ -> (r, s.Stmt.sid) :: acc | [] -> acc)
      | _ -> acc)
  |> List.rev

let args_of_calls f callee idx =
  Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
      match s.Stmt.kind with
      | Stmt.Call c when c.Stmt.callee = callee -> (
        match List.nth_opt c.Stmt.args idx with
        | Some (Stmt.Ovar v) -> (v, s.Stmt.sid) :: acc
        | _ -> acc)
      | _ -> acc)
  |> List.rev
