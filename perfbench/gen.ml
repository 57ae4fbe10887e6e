(** Seeded C-source generators for the benchmark's synthetic inputs.

    The shapes follow the stress families of the repository's corpus
    generator (diamonds, call chains, struct nests, loop and lock farms,
    wide expressions) plus an index-arithmetic family, but the benchmark
    owns its copies: its inputs must not move when the test fixtures do.

    Every generator draws only cosmetic details from [rng] — thresholds,
    stored constants, bounds in preconditions — so two seeds give
    different sources with the same proof shape and nearly the same
    cost.  Sizes are parameters; the workloads pick them.  Every function
    verifies by construction unless a generator is asked for a
    known-failing variant ([~broken] / [~bad]), whose failure also holds by
    construction. *)

let buf_add = Buffer.add_string
let pr = Printf.sprintf

(** A uniform draw from [lo, hi]. *)
let between rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(** The int->int spec header of the diamond and loop families. *)
let int_fn_header b ~bound name =
  buf_add b "[[rc::parameters(\"n : int\")]]\n";
  buf_add b "[[rc::args(\"n @ int<int>\")]]\n";
  buf_add b (pr "[[rc::requires(\"{0 <= n}\", \"{n <= %d}\")]]\n" bound);
  buf_add b "[[rc::exists(\"r : int\")]]\n";
  buf_add b "[[rc::returns(\"r @ int<int>\")]]\n";
  buf_add b (pr "int %s(int n) {\n" name)

(* [k] sequential if/else diamonds over the local [x].  Both arms store
   the same constant, the join shape the engine re-checks once per
   incoming path. *)
let diamonds b rng ~k =
  buf_add b "  int x = 0;\n";
  for _ = 1 to k do
    let t = between rng 0 99 and c = between rng 0 99 in
    buf_add b
      (pr "  if (n > %d) {\n    x = %d;\n  } else {\n    x = %d;\n  }\n" t c c)
  done

(** [functions] independent [k]-diamond functions [dia0 ...]: proof
    search cost Θ(2^k) per function with memoization off. *)
let diamond_farm rng ~functions ~k =
  let b = Buffer.create (functions * (256 + (k * 64))) in
  for i = 0 to functions - 1 do
    int_fn_header b ~bound:(between rng 500 1000) (pr "dia%d" i);
    diamonds b rng ~k;
    buf_add b "  return x;\n}\n\n"
  done;
  Buffer.contents b

(** An [n]-function call chain [f0 -> f1 -> ... -> f(n-1)], callees
    first, each body prefixed by [weight] diamonds.  [nonces.(i) <> 0]
    adds the dead store [int z = nonce;] to [fi]'s body: new body
    content, same spec, so only [fi]'s cache entry moves.  [~broken:i]
    makes [fi] return [n + 1] (or pass it on) against a spec that
    promises [n], which fails by construction. *)
let call_chain rng ?nonces ?broken ~n ~weight () =
  let b = Buffer.create (n * (192 + (weight * 64))) in
  for i = n - 1 downto 0 do
    buf_add b "[[rc::parameters(\"n : int\")]]\n";
    buf_add b "[[rc::args(\"n @ int<int>\")]]\n";
    buf_add b "[[rc::returns(\"n @ int<int>\")]]\n";
    buf_add b (pr "int f%d(int n) {\n" i);
    if weight > 0 then diamonds b rng ~k:weight;
    (match nonces with
    | Some a when a.(i) <> 0 -> buf_add b (pr "  int z = %d;\n" a.(i))
    | _ -> ());
    let arg = if broken = Some i then "n + 1" else "n" in
    if i = n - 1 then buf_add b (pr "  return %s;\n}\n\n" arg)
    else buf_add b (pr "  return f%d(%s);\n}\n\n" (i + 1) arg)
  done;
  Buffer.contents b

(** A [depth]-deep nest of singly-refined structs and an accessor [get]
    that reads the innermost field through all of them. *)
let struct_nest ~depth =
  let b = Buffer.create (256 + (depth * 160)) in
  buf_add b
    "struct [[rc::refined_by(\"a: int\")]] lvl0 {\n\
    \  [[rc::field(\"a @ int<int>\")]] int v;\n\
     };\n";
  for i = 1 to depth do
    buf_add b
      (pr
         "struct [[rc::refined_by(\"a: int\")]] lvl%d {\n\
         \  [[rc::field(\"a @ lvl%d\")]] struct lvl%d inner;\n\
          };\n"
         i (i - 1) (i - 1))
  done;
  buf_add b "\n[[rc::parameters(\"p: loc\", \"a: int\")]]\n";
  buf_add b (pr "[[rc::args(\"p @ &own<a @ lvl%d>\")]]\n" depth);
  buf_add b "[[rc::returns(\"a @ int<int>\")]]\n";
  buf_add b (pr "[[rc::ensures(\"own p : a @ lvl%d\")]]\n" depth);
  buf_add b (pr "int get(struct lvl%d *p) {\n  return p" depth);
  for i = 1 to depth do
    buf_add b (if i = 1 then "->inner" else ".inner")
  done;
  buf_add b ".v;\n}\n";
  Buffer.contents b

(** [functions] copies [count0 ...] of a loop-invariant counting loop,
    the inner-loop shape of the case studies. *)
let loop_farm rng ~functions =
  let b = Buffer.create (functions * 384) in
  for i = 0 to functions - 1 do
    int_fn_header b ~bound:(between rng 500 1000) (pr "count%d" i);
    buf_add b "  int i = 0;\n";
    buf_add b "  [[rc::exists(\"a : int\")]]\n";
    buf_add b "  [[rc::inv_vars(\"i: a @ int<int>\")]]\n";
    buf_add b "  [[rc::constraints(\"{0 <= a}\", \"{a <= n}\")]]\n";
    buf_add b "  while (i < n) {\n    i = i + 1;\n  }\n";
    buf_add b "  return i;\n}\n\n"
  done;
  Buffer.contents b

(** A spinlock pair plus [functions] critical sections [crit0 ...]
    (lock, store to the protected counter, unlock). *)
let lock_farm rng ~functions =
  let b = Buffer.create (1024 + (functions * 256)) in
  buf_add b "struct lock { int locked; };\n\n";
  buf_add b
    "[[rc::parameters(\"k: loc\", \"c: loc\")]]\n\
     [[rc::args(\"k @ &own<c @ lock_t>\")]]\n\
     [[rc::ensures(\"own k : c @ lock_t\", \"own c : int<int>\")]]\n\
     void spin_lock(struct lock* l) {\n\
    \  int expected = 0;\n\
    \  [[rc::inv_vars(\"l: k @ &own<c @ lock_t>\")]]\n\
    \  while (1) {\n\
    \    expected = 0;\n\
    \    int ok = atomic_compare_exchange_strong(&l->locked, &expected, 1);\n\
    \    if (ok)\n\
    \      return;\n\
    \  }\n\
     }\n\n";
  buf_add b
    "[[rc::parameters(\"k: loc\", \"c: loc\")]]\n\
     [[rc::args(\"k @ &own<c @ lock_t>\")]]\n\
     [[rc::requires(\"own c : int<int>\")]]\n\
     [[rc::ensures(\"own k : c @ lock_t\")]]\n\
     void spin_unlock(struct lock* l) {\n\
    \  atomic_store(&l->locked, 0);\n\
     }\n\n";
  for i = 0 to functions - 1 do
    buf_add b
      (pr
         "[[rc::parameters(\"k: loc\", \"c: loc\")]]\n\
          [[rc::args(\"k @ &own<c @ lock_t>\", \"c @ &own<int<int>>\")]]\n\
          [[rc::ensures(\"own k : c @ lock_t\")]]\n\
          void crit%d(struct lock* l, int* counter) {\n\
         \  spin_lock(l);\n\
         \  *counter = %d;\n\
         \  spin_unlock(l);\n\
          }\n\n"
         i (between rng 0 9999))
  done;
  Buffer.contents b

(** One function [wide] of [stmts] straight-line [width]-term addition
    chains over earlier locals.  Every addition carries an overflow side
    condition over all earlier equalities, so the pure solver dominates;
    with [n <= 1000] the chain stays in [int] range up to 10 statements
    at width 3. *)
let wide_exprs rng ~stmts ~width =
  let b = Buffer.create (256 + (stmts * width * 8)) in
  int_fn_header b ~bound:1000 "wide";
  buf_add b (pr "  int x0 = n + %d;\n" (between rng 1 9));
  for i = 1 to stmts do
    buf_add b (pr "  int x%d = x%d" i (i - 1));
    for j = 1 to width do
      buf_add b (pr " + x%d" ((i - 1 + j) mod i))
    done;
    buf_add b ";\n"
  done;
  buf_add b (pr "  return x%d;\n}\n" stmts);
  Buffer.contents b

(** [functions] bounds-guarded array walks [ia0 ...] in the style of
    [hashmap.c]/[binary_search.c]: each of [steps] steps guards
    [j + d < n], advances [j] by [d] and reads [a[j - 1]].  The array
    bound, the overflow and the postcondition side conditions are all
    linear arithmetic over the accumulated guards, so the pure solver
    takes most of the time.  The default solver proves 8 steps and gives
    up at 9, so [steps] stays well below that.  [~bad:true] claims
    [r < i] although the first early return yields [i]: a failure by
    construction. *)
let index_arith rng ?(bad = false) ~functions ~steps () =
  let b = Buffer.create (functions * (640 + (steps * 96))) in
  for f = 0 to functions - 1 do
    buf_add b
      "[[rc::parameters(\"q: loc\", \"n: nat\", \"xs: {list int}\", \"i: int\")]]\n";
    buf_add b
      "[[rc::args(\"q @ &own<array<int<int>, n, xs>>\", \"n @ int<int>\", \"i \
       @ int<int>\")]]\n";
    buf_add b
      (pr "[[rc::requires(\"{n <= %d}\", \"{0 <= i}\", \"{i <= n}\")]]\n"
         (between rng 50_000 100_000));
    buf_add b "[[rc::exists(\"r: int\")]]\n";
    buf_add b "[[rc::returns(\"r @ int<int>\")]]\n";
    buf_add b
      (pr "[[rc::ensures(%s, \"own q : array<int<int>, n, xs>\")]]\n"
         (if bad then "\"{r < i}\"" else "\"{0 <= r}\", \"{r <= n}\""));
    buf_add b (pr "int ia%d(int* a, int n, int i) {\n  int j0 = i;\n" f);
    for s = 1 to steps do
      let d = between rng 1 3 in
      buf_add b
        (pr "  if (j%d + %d >= n) {\n    return j%d;\n  }\n" (s - 1) d (s - 1));
      buf_add b (pr "  int j%d = j%d + %d;\n" s (s - 1) d);
      buf_add b (pr "  int v%d = a[j%d - 1];\n" s s)
    done;
    buf_add b (pr "  return j%d;\n}\n\n" steps)
  done;
  Buffer.contents b
