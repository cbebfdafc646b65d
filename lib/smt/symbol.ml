type t = int
type sort = Bool | Int

(* The registry is global and written from every domain (SEG build forces
   variable symbols, the engine's clone frames mint fresh ones), so
   allocation is serialised by a mutex.  Readers don't take it: the arrays
   are published through Atomic references, and a slot is written before
   [next] admits its id — a reader holding a valid id always sees a fully
   initialised slot through the same release/acquire pair. *)
type registry = {
  names : string array;
  sorts : sort array;
  bases : t array;  (** a clone's base symbol; [-1] for a plain symbol *)
}

let registry cap =
  { names = Array.make cap ""; sorts = Array.make cap Bool; bases = Array.make cap (-1) }

let reg = Atomic.make (registry 1024)
let next = ref 0
let lock = Mutex.create ()

let grow n =
  let r = Atomic.get reg in
  if n > Array.length r.names then begin
    let r' = registry (max n (2 * Array.length r.names)) in
    Array.blit r.names 0 r'.names 0 !next;
    Array.blit r.sorts 0 r'.sorts 0 !next;
    Array.blit r.bases 0 r'.bases 0 !next;
    Atomic.set reg r'
  end

let alloc nm so ~base =
  Mutex.protect lock (fun () ->
      grow (!next + 1);
      let r = Atomic.get reg in
      let id = !next in
      r.names.(id) <- nm;
      r.sorts.(id) <- so;
      r.bases.(id) <- base;
      incr next;
      id)

let fresh nm so = alloc nm so ~base:(-1)
let name id = (Atomic.get reg).names.(id)
let sort id = (Atomic.get reg).sorts.(id)
let clone base tag = alloc (name base ^ "@" ^ tag) (sort base) ~base
let count () = !next

(* A clone's id is minted in whatever order the engine's frames reach it,
   which depends on the schedule at [--jobs] > 1; its printed form is its
   interning key instead — its base's printed form, then ["@tag"], the
   part of its name after its base's name — so output does not depend on
   the schedule. *)
let rec pp ppf id =
  let r = Atomic.get reg in
  let base = r.bases.(id) in
  if base < 0 then Format.fprintf ppf "%s#%d" r.names.(id) id
  else
    let nm = r.names.(id) and skip = String.length r.names.(base) in
    Format.fprintf ppf "%a%s" pp base (String.sub nm skip (String.length nm - skip))

let pp_sort ppf = function
  | Bool -> Format.pp_print_string ppf "bool"
  | Int -> Format.pp_print_string ppf "int"
