type targets = {
  mutable buf : int array;
  mutable n : int;
}

let targets () = { buf = Array.make 128 0; n = 0 }

let push b h o =
  let i = 2 * b.n in
  if i = Array.length b.buf then begin
    let buf = Array.make (2 * i) 0 in
    Array.blit b.buf 0 buf 0 i;
    b.buf <- buf
  end;
  b.buf.(i) <- h;
  b.buf.(i + 1) <- o;
  b.n <- b.n + 1

(* Pair order on handle, then object: the lexicographic order
   [compare] gives the tuples. *)
let less a i j =
  let hi = a.(2 * i) and hj = a.(2 * j) in
  hi < hj || (hi = hj && a.((2 * i) + 1) < a.((2 * j) + 1))

let swap a i j =
  let h = a.(2 * i) and o = a.((2 * i) + 1) in
  a.(2 * i) <- a.(2 * j);
  a.((2 * i) + 1) <- a.((2 * j) + 1);
  a.(2 * j) <- h;
  a.((2 * j) + 1) <- o

let rec sift a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && less a l (l + 1) then l + 1 else l in
    if less a i c then begin
      swap a i c;
      sift a c n
    end
  end

(* Heapsort, then one pass dropping repeats: in place, and
   O(n log n) in whatever order the prefetchers emitted. *)
let sort_uniq b =
  let a = b.buf and n = b.n in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    swap a 0 last;
    sift a 0 last
  done;
  if n > 1 then begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if less a (!w - 1) r then begin
        a.(2 * !w) <- a.(2 * r);
        a.((2 * !w) + 1) <- a.((2 * r) + 1);
        incr w
      end
    done;
    b.n <- !w
  end

let to_list b = List.init b.n (fun i -> (b.buf.(2 * i), b.buf.((2 * i) + 1)))

type stride_state = {
  s_depth : int;
  mutable last : int;
  mutable have_last : bool;
  deltas : int array;          (* ring of recent deltas *)
  mutable n_deltas : int;
  mutable next_slot : int;
  mutable locked : int;        (* 0 = unlocked *)
  mutable frontier : int;      (* first object not yet covered by an
                                  emitted window (unit-stride mode only) *)
}

type jump_state = {
  j_jump : int;
  j_depth : int;
  mutable table : int array;      (* obj -> obj seen [jump] steps later,
                                     -1 when unknown *)
  ring : int array;               (* last [jump] objects *)
  mutable ring_n : int;
  mutable ring_pos : int;
  mutable since_chase : int;      (* accesses since the last chase *)
}

type kind =
  | Stride of stride_state
  | Greedy of int
  | Jump of jump_state

(* Observability wrapper: every prefetcher counts its invocations and
   emitted targets, so epoch metrics can report per-policy activity
   without the runtime re-deriving it. *)
type t = {
  k : kind;
  mutable calls : int;
  mutable emitted : int;
}

let wrap k = { k; calls = 0; emitted = 0 }

let stride ~depth =
  wrap
    (Stride
       { s_depth = depth; last = 0; have_last = false;
         deltas = Array.make 8 0; n_deltas = 0; next_slot = 0; locked = 0;
         frontier = 0 })

let greedy ~fanout = wrap (Greedy fanout)

let jump ~jump ~depth =
  wrap
    (Jump
       { j_jump = jump; j_depth = depth; table = Array.make 256 (-1);
         ring = Array.make jump 0; ring_n = 0; ring_pos = 0;
         since_chase = 0 })

let of_class cls ~depth =
  match (cls : Static_info.prefetch_class) with
  | No_prefetch -> None
  | Stride -> Some (stride ~depth)
  | Greedy_recursive -> Some (greedy ~fanout:depth)
  | Jump_pointer ->
    (* Jump pointers exist to tolerate latency on linear chains (Luk &
       Mowry): each table hop advances [jump] positions, so chasing
       [4·depth] hops runs far enough ahead of the traversal to cover a
       full remote fetch. *)
    Some (jump ~jump:8 ~depth:(4 * depth))

(* Majority vote over the delta window. *)
let majority_delta st =
  let n = st.n_deltas in
  if n < 4 then 0
  else begin
    let best = ref 0 and best_count = ref 0 in
    for i = 0 to n - 1 do
      let d = st.deltas.(i) in
      let c = ref 0 in
      for j = 0 to n - 1 do
        if st.deltas.(j) = d then incr c
      done;
      if !c > !best_count then begin
        best := d;
        best_count := !c
      end
    done;
    if 2 * !best_count > n && !best <> 0 then !best else 0
  end

(* Objects are dense pool indices, so the jump table is an array that
   doubles to cover the largest object recorded. *)
let jump_record st victim obj =
  let n = Array.length st.table in
  if victim >= n then begin
    let table = Array.make (max (2 * n) (victim + 1)) (-1) in
    Array.blit st.table 0 table 0 n;
    st.table <- table
  end;
  st.table.(victim) <- obj

let jump_next st obj =
  if obj < Array.length st.table then st.table.(obj) else -1

(* Append the pairs [first, b.n) in reverse order. *)
let reverse_from b first =
  let i = ref first and j = ref (b.n - 1) in
  while !i < !j do
    swap b.buf !i !j;
    incr i;
    decr j
  done

let on_access_kind k b ~obj ~missed ~scan =
  match k with
  | Stride st ->
    if st.have_last then begin
      let d = obj - st.last in
      if d <> 0 then begin
        st.deltas.(st.next_slot) <- d;
        st.next_slot <- (st.next_slot + 1) mod Array.length st.deltas;
        if st.n_deltas < Array.length st.deltas then
          st.n_deltas <- st.n_deltas + 1;
        let was = st.locked in
        st.locked <- majority_delta st;
        if st.locked <> was then st.frontier <- 0
      end;
      if st.locked = 1 then begin
        (* Unit stride: emit the window as consecutive objects with
           hysteresis.  Topping the window up only when the issued
           frontier falls within [depth] of the access point means
           each top-up covers ~[depth] fresh objects — one wire
           request per window chunk instead of one per object. *)
        (* A seek backwards (typically a new pass over the same
           array) strands the frontier beyond anything we would emit
           again; snap it back so the re-traversal prefetches like
           the first pass did. *)
        if st.frontier > obj + (2 * st.s_depth) + 1 then
          st.frontier <- obj + 1;
        if st.frontier - obj <= st.s_depth then begin
          let lo = max st.frontier (obj + 1) in
          let hi = obj + (2 * st.s_depth) in
          st.frontier <- hi + 1;
          for o = lo to hi do
            push b 0 o
          done
        end
      end
      else if st.locked <> 0 then
        for i = 1 to st.s_depth do
          let o = obj + (st.locked * i) in
          if o >= 0 then push b 0 o
        done
    end;
    st.last <- obj;
    st.have_last <- true
  | Greedy fanout ->
    if missed then begin
      let first = b.n in
      scan b obj;
      if b.n - first > fanout then b.n <- first + fanout
    end
  | Jump st ->
    (* Record: the object seen [jump] accesses ago now maps to us. *)
    if st.ring_n >= st.j_jump then begin
      jump_record st st.ring.(st.ring_pos) obj;
      (* Chase on a cadence, not every access: re-chasing from every
         position re-emits yesterday's window and nets one fresh
         object per call — a stream of single-object requests each
         paying the full protocol cost.  Chasing every [jump]
         accesses (immediately on a miss, when the window collapsed)
         advances the frontier by ~[jump] objects at a time, which a
         batching fabric carries as one request. *)
      st.since_chase <- st.since_chase + 1;
      if missed || st.since_chase >= st.j_jump then begin
        st.since_chase <- 0;
        (* Fetch ahead through the jump table, then present the window
           farthest object first. *)
        let first = b.n in
        let from = ref obj and depth = ref st.j_depth in
        while !depth > 0 do
          let next = jump_next st !from in
          if next < 0 then depth := 0
          else begin
            push b 0 next;
            from := next;
            decr depth
          end
        done;
        reverse_from b first
      end
    end;
    st.ring.(st.ring_pos) <- obj;
    st.ring_pos <- (st.ring_pos + 1) mod st.j_jump;
    if st.ring_n < st.j_jump then st.ring_n <- st.ring_n + 1

let on_access t b ~obj ~missed ~scan =
  t.calls <- t.calls + 1;
  let first = b.n in
  on_access_kind t.k b ~obj ~missed ~scan;
  t.emitted <- t.emitted + (b.n - first)

let kind_name t =
  match t.k with
  | Stride _ -> "stride"
  | Greedy _ -> "greedy"
  | Jump _ -> "jump"

let calls t = t.calls
let targets_emitted t = t.emitted
