(* In-memory spans around the benchmark's calls into each systrace layer.

   A span has a name (the layer and call, e.g. "machine.traced"), a
   start and end time, the span that was open around it on the same
   thread, and the cell or stream it belongs to.  Spans are kept in
   memory and written out when the run ends.  With recording off,
   [with_] is a plain call. *)

type t = {
  id : int;
  name : string;
  key : string;  (* cell or stream the span belongs to; "" for none *)
  parent : int;  (* id of the enclosing span on this domain, -1 for none *)
  pass : int;  (* 0 = set-up, k >= 1 = the k-th traced pass *)
  start : float;
  stop : float;
  minor_words : float;  (* GC allocation inside the span, by its domain *)
  major_words : float;
}

let enabled = ref false
let current_pass = Atomic.make 0
let next_id = Atomic.make 0
let lock = Mutex.create ()
let finished : t list ref = ref []

(* Open spans of each thread, innermost first: (id, key). *)
let stacks : (int, (int * string) list) Hashtbl.t = Hashtbl.create 8

let now = Unix.gettimeofday

let with_ ?key name f =
  if not !enabled then f ()
  else begin
    let me = Thread.id (Thread.self ()) in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, key =
      Mutex.protect lock (fun () ->
          let stack = Option.value (Hashtbl.find_opt stacks me) ~default:[] in
          let parent, inherited = match stack with (p, k) :: _ -> (p, k) | [] -> (-1, "") in
          let key = Option.value key ~default:inherited in
          Hashtbl.replace stacks me ((id, key) :: stack);
          (parent, key))
    in
    let pass = Atomic.get current_pass in
    let mi0, _, ma0 = Gc.counters () in
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        let mi1, _, ma1 = Gc.counters () in
        let s =
          { id; name; key; parent; pass; start; stop;
            minor_words = mi1 -. mi0; major_words = ma1 -. ma0 }
        in
        Mutex.protect lock (fun () ->
            Hashtbl.replace stacks me (List.tl (Hashtbl.find stacks me));
            finished := s :: !finished))
  end

let all () = List.sort (fun a b -> compare a.id b.id) !finished

let reset () =
  finished := [];
  Atomic.set current_pass 0

let duration s = s.stop -. s.start

(* Total length of the union of [(start, stop)] intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur_lo cur_hi = function
    | [] -> acc +. (cur_hi -. cur_lo)
    | (lo, hi) :: rest ->
      if lo > cur_hi then go (acc +. (cur_hi -. cur_lo)) lo hi rest
      else go acc cur_lo (Float.max cur_hi hi) rest
  in
  match sorted with [] -> 0.0 | (lo, hi) :: rest -> go 0.0 lo hi rest

(* The part of [s] that none of [children] covers: duration minus the
   union of the children's intervals clipped to [s]. *)
let uncovered s children =
  let clipped =
    List.filter_map
      (fun c ->
        let lo = Float.max s.start c.start and hi = Float.min s.stop c.stop in
        if hi > lo then Some (lo, hi) else None)
      children
  in
  duration s -. union_length clipped

(* Self time of every span: its duration minus what its children cover. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.add kids c.parent c) spans;
  List.map (fun s -> (s, uncovered s (Hashtbl.find_all kids s.id))) spans

(* One set-up plus one average traced pass: values of pass 0 summed, plus
   the sum of the others divided by [passes]. *)
let per_pass ~passes values =
  let setup = ref 0.0 and passed = ref 0.0 in
  List.iter (fun (p, v) -> if p = 0 then setup := !setup +. v else passed := !passed +. v) values;
  !setup +. (!passed /. float_of_int (max 1 passes))

(* [per_pass] of [f] over the spans called [name]. *)
let named ~passes spans f name =
  per_pass ~passes
    (List.filter_map (fun s -> if s.name = name then Some (s.pass, f s) else None) spans)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  let r = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line, in start order. *)
let write path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %s, \"key\": %s, \"parent\": %d, \
             \"pass\": %d, \"start\": %.6f, \"end\": %.6f, \"minor_words\": \
             %.0f, \"major_words\": %.0f}\n"
            s.id (json_string s.name) (json_string s.key) s.parent s.pass
            s.start s.stop s.minor_words s.major_words)
        spans)
