(* BENCHMARK.json: the one place that names the workloads and metrics and
   fixes each end-to-end metric's unit, direction and regression bound.
   The benchmark prints exactly the metrics listed there. *)

module Json = Pinpoint_server.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;  (** end-to-end metrics only: allowed worsening, as a share *)
}

type t = {
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let fail fmt = Printf.ksprintf failwith fmt

let field name j =
  match Json.member name j with Some v -> v | None -> fail "BENCHMARK.json: missing %S" name

let string_field name j =
  match Json.string_opt (field name j) with
  | Some s -> s
  | None -> fail "BENCHMARK.json: %S is not a string" name

let list_field name j =
  match Json.list_opt (field name j) with
  | Some l -> l
  | None -> fail "BENCHMARK.json: %S is not a list" name

let metric j =
  {
    name = string_field "name" j;
    unit_ = string_field "unit" j;
    lower_is_better =
      (match string_field "better" j with
      | "lower" -> true
      | "higher" -> false
      | b -> fail "BENCHMARK.json: better = %S" b);
    bound = Option.bind (Json.member "bound" j) Json.number_opt;
  }

let of_string s =
  match Json.parse s with
  | Error e -> fail "BENCHMARK.json: %s" e
  | Ok j ->
    {
      workloads =
        List.map (fun w -> (string_field "name" w, string_field "why" w)) (list_field "workloads" j);
      end_to_end = List.map metric (list_field "end_to_end" j);
      per_layer = List.map metric (list_field "per_layer" j);
    }

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)
