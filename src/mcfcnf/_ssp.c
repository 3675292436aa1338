/* Min-cost-flow solve of mcfcnf.flowcore (see load_kernel), the best-first
 * branch-and-bound loop of mcfcnf.exact around it and the generations of
 * mcfcnf.ga's genetic search, ctypes calls that allocate nothing: the
 * caller passes every array they write, and ssp_solve checks the costs and
 * arc indices it is given before it writes anything. A solve is also a
 * whole branch-and-bound node: it patches the opened arcs' costs, sums
 * their fixed costs, solves, and in one pass over the carrying arcs writes
 * their residual pairs, a true-cost estimate and the arc to branch on. The
 * estimate adds the terms of evaluate.true_cost in arc order, not numpy's
 * pairwise order, so the caller allows for the difference
 * (evaluate.TRUE_COST_MARGIN) before taking the exact cost; the GA's decode
 * takes the exact cost itself, summed in numpy's order (pairwise).
 * bnb_run pops, solves both children warm from their parent and prunes or
 * queues them, and returns to the caller only to price a candidate
 * incumbent, to have a buffer grown, to log a solve (when asked) and at the
 * end, so its nodes and bounds are the Python loop's the tests keep.
 * ga_run breeds, decodes and selects whole generations on CPython's
 * Mersenne Twister, stepped here, and returns to the caller when its
 * history buffer fills, every few milliseconds (so Python's signal
 * handlers run), to log a decode (when asked) and at the end; its draws,
 * costs and history are those of the Python loop the tests keep.
 *
 * Status codes. ssp_solve returns the number of carrying arcs, or -1 (more
 * than push_cap rounds), -2 (an arc of infinite capacity to saturate), -3
 * (an opened or closed arc outside 0..m-1), -4 (a start arc outside
 * 0..m-1), -5 (a cost not >= 0). bnb_run returns 0 DONE, 1 CANDIDATE,
 * 2 SOLVED, 3 GROW, or -1 or -2 from a child's solve. ga_run returns 0
 * DONE, 1 PAUSED, 2 DECODED, or -1 (a decode needed more than 4m + 16
 * rounds) or -2 (a child's decode does not route the target).
 *
 * Residual id 2i is arc i forward, 2i+1 its reversal; head[r] is where r
 * ends, adj[adj_start[u] .. adj_start[u + 1]) the ids leaving u, ascending.
 * ssp_augment is successive shortest paths with potentials: each round a
 * Dijkstra from frm stops when it settles `to`, the potentials shift and the
 * path's bottleneck is pushed. A path of infinite bottleneck, possible only
 * when the amount is infinite (max flow), ends it before the push, with
 * sent = INFINITY. Its results must equal, bit for bit, the
 * reference loop the tests keep: vertices are keyed by (distance, push
 * counter), a total order, and every float expression is evaluated in the
 * reference's left-to-right order (built with -ffp-contract=off, no
 * -ffast-math). The reference's lazy heap holds stale entries too; here an
 * indexed heap holds each reached vertex once, and a shorter distance moves
 * it up under a new counter (decrease-key). A vertex's live entry pops
 * before its stale ones, so both settle the vertices in one order.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* The Dijkstra arrays, carved from the caller's 32 bytes per vertex. */
typedef struct {
    double *dist;
    int64_t *counter; /* the push counter of a vertex's key */
    int32_t *parent;  /* residual id that reached a vertex */
    int32_t *heap;    /* reached, unsettled vertices, a binary heap */
    int32_t *slot;    /* slot[v]: where v sits in heap */
    char *done;
    int32_t size;
} search;

static int before(const search *s, int32_t v, int32_t w) {
    const double *d = s->dist;
    return d[v] < d[w] || (d[v] == d[w] && s->counter[v] < s->counter[w]);
}

static void place(search *s, int32_t i, int32_t v) {
    s->heap[i] = v;
    s->slot[v] = i;
}

/* Move vertex v, new or with a lower key, up from slot i to its place. */
static void sift_up(search *s, int32_t i, int32_t v) {
    while (i > 0) {
        int32_t up = (i - 1) / 2;
        if (!before(s, v, s->heap[up]))
            break;
        place(s, i, s->heap[up]);
        i = up;
    }
    place(s, i, v);
}

static int32_t pop(search *s) {
    int32_t top = s->heap[0], last = s->heap[--s->size], n = s->size, i = 0;
    for (;;) {
        int32_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(s, s->heap[child + 1], s->heap[child]))
            child++;
        if (!before(s, s->heap[child], last))
            break;
        place(s, i, s->heap[child]);
        i = child;
    }
    if (n > 0)
        place(s, i, last);
    return top;
}

static int ssp_augment(int32_t n, const int32_t *head, const int32_t *adj_start,
                       const int32_t *adj, const double *cost, double *res, double *pot,
                       int32_t frm, int32_t to, double amount, double stop, int64_t push_cap,
                       double *work, double *left, double *sent) {
    search s;
    double remaining = amount, total = 0.0;
    int64_t pushes = 0;

    s.dist = work;
    s.counter = (int64_t *)(work + n);
    s.parent = (int32_t *)(work + 2 * (int64_t)n);
    s.heap = s.parent + n;
    s.slot = s.heap + n;
    s.done = (char *)(s.slot + n);
    while (remaining > stop && ++pushes <= push_cap) {
        int64_t counter = 1;
        double dist_t = INFINITY, bottleneck;
        int32_t v;

        for (v = 0; v < n; v++) {
            s.dist[v] = INFINITY;
            s.done[v] = 0;
            s.parent[v] = -1;
        }
        s.dist[frm] = 0.0;
        s.counter[frm] = 0;
        s.size = 1;
        place(&s, 0, frm);
        while (s.size > 0) {
            int32_t u = pop(&s), k;
            double du = s.dist[u], pu;
            s.done[u] = 1;
            if (u == to) {
                dist_t = du;
                break;
            }
            pu = pot[u];
            for (k = adj_start[u]; k < adj_start[u + 1]; k++) {
                int32_t rid = adj[k], w;
                double nd;
                if (res[rid] <= 0.0)
                    continue;
                w = head[rid];
                if (s.done[w])
                    continue;
                nd = du + (rid & 1 ? -cost[rid >> 1] : cost[rid >> 1]) + pu - pot[w];
                if (nd < s.dist[w]) { /* unsettled with a finite distance: in the heap */
                    int32_t at = s.dist[w] == INFINITY ? s.size++ : s.slot[w];
                    s.dist[w] = nd;
                    s.parent[w] = rid;
                    s.counter[w] = counter++;
                    sift_up(&s, at, w);
                }
            }
        }
        if (dist_t == INFINITY)
            break;

        /* settled vertices keep their label; the rest shift by dist_t, which
           keeps every residual arc's reduced cost nonnegative */
        for (v = 0; v < n; v++)
            pot[v] += s.done[v] && s.dist[v] < dist_t ? s.dist[v] : dist_t;

        bottleneck = remaining;
        for (v = to; v != frm; v = head[s.parent[v] ^ 1])
            if (res[s.parent[v]] < bottleneck)
                bottleneck = res[s.parent[v]];
        if (bottleneck == INFINITY) {
            total = INFINITY;
            break;
        }
        for (v = to; v != frm; v = head[s.parent[v] ^ 1]) {
            res[s.parent[v]] -= bottleneck;
            res[s.parent[v] ^ 1] += bottleneck;
        }
        remaining -= bottleneck;
        total += bottleneck;
    }
    *left = remaining;
    *sent = total;
    return pushes > push_cap; /* 1: more than push_cap rounds were needed */
}

/* A compiled topology (flowcore.Topology), bound once: residual heads and
 * capacities, adjacency, each arc's variable cost per unit and fixed cost,
 * the zero-flow tolerance, and the sizes, source and sink. */
typedef struct {
    const int32_t *head, *adj_start, *adj;
    const double *capacity, *unit_cost, *fixed;
    double tol;
    int64_t m;
    int32_t n, source, sink;
} network;

/* A thread's work arrays (flowcore.load_kernel): res and pairs 2m doubles,
 * out 6, work 32 bytes per vertex, node_cost m doubles, arcs m, and is_open
 * m bytes, all zero between calls. */
typedef struct {
    double *res, *pairs, *out, *work, *node_cost;
    int64_t *arcs;
    char *is_open;
} workspace;

/* The whole solve: residuals set to capacity, the start's arcs restored, arc
 * `changed` repaired, closed arcs zeroed, then ssp_augment from source to
 * sink. node_arcs holds the opened arcs, then the closed ones (each in any
 * order). The opened arcs cost unit_cost per unit instead of cost: their
 * costs go to node_cost, and is_open marks them until the return. Writes
 * the carrying arcs to arcs, their residual pairs to pairs and, to out, the
 * amount left, their cost (summed in arc order), the amount sent, the
 * opened arcs' fixed costs (in arc order), an estimate of the flow's true
 * cost (fixed costs of the arcs carrying more than tol, then unit_cost x
 * flow, each summed in arc order) and the arc to branch on (-1 for none:
 * the carrying arc with the most flow strictly between tol and its capacity
 * less tol that is not open, the first on ties). Returns their number, or
 * -1 (more than push_cap rounds) or -2 (an arc of infinite capacity to
 * saturate). Its arguments are checked: ssp_solve's by ssp_solve, the
 * search's by construction. */
static int64_t solve(const network *g, const double *cost, const int64_t *node_arcs,
                     int64_t n_opened, int64_t n_closed, const int64_t *start_arcs,
                     const double *start_res, int64_t n_start, int64_t changed,
                     int32_t changed_closed, double amount, double stop, int64_t push_cap,
                     double *pot, const workspace *w) {
    const int32_t *head = g->head;
    const double *capacity = g->capacity, *c = cost, tol = g->tol;
    double *res = w->res, *out = w->out, constant = 0.0, most = tol, fixed_sum = 0.0,
           variable_sum = 0.0;
    char *is_open = w->is_open;
    int64_t i, k = -2, m = g->m;
    int32_t frm = g->source, to = g->sink;

    if (n_opened > 0) {
        for (i = 0; i < n_opened; i++)
            is_open[node_arcs[i]] = 1;
        for (i = 0; i < m; i++) {
            w->node_cost[i] = is_open[i] ? g->unit_cost[i] : cost[i];
            if (is_open[i])
                constant += g->fixed[i];
        }
        c = w->node_cost;
    }
    out[3] = constant;
    memcpy(res, capacity, sizeof(double) * (size_t)(2 * m));
    for (i = 0; i < 2 * n_start; i++)
        res[2 * start_arcs[i / 2] + i % 2] = start_res[i];
    if (changed >= 0) { /* closed: its flow goes around it (and it is zeroed below);
                           cheaper: saturated if that pays, surplus back; opened at the
                           caller's own cost: no cheaper (reduced cost 0 but rounding) */
        int64_t r = changed_closed ? 2 * changed + 1 : 2 * changed;
        frm = head[r];
        to = head[r ^ 1];
        amount = changed_closed || (c[changed] + pot[to] - pot[frm] < 0.0
                                    && !(is_open[changed] && c[changed] == cost[changed]))
                     ? res[r] : 0.0;
        if (amount == INFINITY)
            goto unmark;
        res[r] = res[r] - amount;
        res[r ^ 1] = res[r ^ 1] + amount;
    }
    for (i = 0; i < n_closed; i++)
        res[2 * node_arcs[n_opened + i]] = 0.0;
    k = -1;
    if (ssp_augment(g->n, head, g->adj_start, g->adj, c, res, pot, frm, to, amount, stop,
                    push_cap, w->work, &out[0], &out[2]))
        goto unmark;
    out[5] = -1.0;
    for (k = 0, out[1] = 0.0, i = 0; i < m; i++) {
        double x = res[2 * i + 1];
        if (x == 0.0)
            continue;
        out[1] += x * c[i];
        if (x > tol)
            fixed_sum += g->fixed[i];
        variable_sum += g->unit_cost[i] * x;
        if (most < x && x < capacity[2 * i] - tol && !is_open[i]) {
            most = x;
            out[5] = (double)i;
        }
        w->pairs[2 * k] = res[2 * i];
        w->pairs[2 * k + 1] = x;
        w->arcs[k++] = i;
    }
    out[4] = fixed_sum + variable_sum;
unmark:
    for (i = 0; i < n_opened; i++)
        is_open[node_arcs[i]] = 0;
    return k;
}

/* solve, for one caller's arguments (flowcore.load_kernel): before it
 * writes anything it returns -3 for an opened or closed arc and -4 for a
 * start arc outside 0..m-1 and -5 for a cost not >= 0 (NaN too; the first
 * such arc in out[5]). The caller checks `changed` and sizes every array;
 * unit_cost, like the whole network, comes from a checked instance
 * (flowcore.Topology). */
int64_t ssp_solve(const network *g, const double *cost, const int64_t *node_arcs,
                  int64_t n_opened, int64_t n_closed, const int64_t *start_arcs,
                  const double *start_res, int64_t n_start, int64_t changed,
                  int32_t changed_closed, double amount, double stop, int64_t push_cap,
                  double *pot, const workspace *w) {
    int64_t i, m = g->m;

    for (i = 0; i < m; i++)
        if (!(cost[i] >= 0.0)) {
            w->out[5] = (double)i;
            return -5;
        }
    for (i = 0; i < n_opened + n_closed; i++)
        if (node_arcs[i] < 0 || node_arcs[i] >= m)
            return -3;
    for (i = 0; i < n_start; i++)
        if (start_arcs[i] < 0 || start_arcs[i] >= m)
            return -4;
    return solve(g, cost, node_arcs, n_opened, n_closed, start_arcs, start_res, n_start,
                 changed, changed_closed, amount, stop, push_cap, pot, w);
}

/* Best-first branch-and-bound (mcfcnf.exact), the loop around solve. An
 * open node is an entry of the queue `open`, a binary heap ordered by
 * (bound, -depth, visit count), and a record in `arena`: the header, then
 * its decisions (its opened arcs, then its closed ones: depth of them), its
 * carrying arcs, their residual pairs and its potentials. Records are
 * appended; a popped one is marked free, and the free ones' words are
 * reclaimed when the arena is full by sliding the live records down. The
 * caller owns every buffer and grows it when the search returns GROW, so
 * the search allocates nothing. */
typedef struct {
    double bound;
    int64_t depth, count; /* count: the node's visit count, unique */
    int64_t offset;       /* of its record in the arena, in words */
} entry;

typedef struct {
    int64_t slot; /* -1 once popped; while compacting, its queue slot */
    int64_t size; /* words, this header's included */
    double shortfall;
    int64_t branch, n_arcs, n_opened;
} record;

/* A node solved: its decisions (opened, then closed), end state and facts. */
typedef struct {
    const int64_t *decisions, *arcs;
    const double *res, *pot;
    double bound, shortfall;
    int64_t n_arcs, branch, n_opened, n_closed;
} solved;

/* Where bnb_run resumes, and what it returns (or solve's negative status). */
enum { ROOT, POP, SOLVE, OFFER, SETTLE };
enum { DONE, CANDIDATE, SOLVED, GROW };

/* The search. The caller sets the buffers (open, arena and node_log's
 * pairs, none with a capacity of 0; capacities in 8-byte words), the
 * scratch (m + 2 decisions, m start arcs, 2m start residuals, n start
 * potentials, n potentials), log (1: return SOLVED for every solve), the
 * target amount, the incumbent's cost, the rules (gap, factor = 1 + the
 * true-cost margin) and the stops (seconds from the first call, the node
 * limit).
 * It puts the root where a child's solve leaves it: its carrying arcs and
 * residual pairs in the workspace, its facts in out, its potentials in pot,
 * n_arcs and shortfall here. The rest is the search's. */
typedef struct {
    entry *open;
    int64_t *arena;
    double *bounds; /* (parent bound, child bound) per feasible child */
    int64_t *decisions, *start_arcs;
    double *start_res, *start_pot, *pot;
    int64_t open_cap, arena_cap, bounds_cap, log, n_arcs;
    double amount, best, gap, factor, budget, node_limit, shortfall;
    int64_t open_size, arena_used, bounds_size, need_open, need_arena, need_bounds;
    int64_t nodes, open_peak, stage, child, push_cap;
    /* the node popped (its visit count is parent; 0 for the root) */
    int64_t parent, depth, n_opened, n_start, arc, feasible;
    double pruned_floor, floor, start, parent_bound, parent_shortfall;
} bnb;

static double now(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* exact's rule: the incumbent is within the gap of bound, written so, not
 * negated, as a NaN while best is inf prunes nothing. Bounds cut inside the
 * window lower pruned_floor, which keeps the reported bound honest. */
static int pruned(bnb *b, double bound) {
    if (bound >= b->best - b->gap * fmax(1.0, fabs(b->best))) {
        if (bound < b->best && bound < b->pruned_floor)
            b->pruned_floor = bound;
        return 1;
    }
    return 0;
}

static int ahead(const entry *x, const entry *y) {
    return x->bound < y->bound || (x->bound == y->bound && (x->depth > y->depth
           || (x->depth == y->depth && x->count < y->count)));
}

/* Slide the live records to the arena's start, in order. */
static void compact(bnb *b) {
    int64_t i, from, size, to = 0;

    for (i = 0; i < b->open_size; i++)
        ((record *)(b->arena + b->open[i].offset))->slot = i;
    for (from = 0; from < b->arena_used; from += size) {
        record *r = (record *)(b->arena + from);
        size = r->size;
        if (r->slot < 0)
            continue;
        b->open[r->slot].offset = to;
        memmove(b->arena + to, r, sizeof(int64_t) * (size_t)size);
        to += size;
    }
    b->arena_used = to;
}

/* Queue the node: its record appended, its entry sifted up. */
static void push_node(bnb *b, const solved *s, int64_t n, int64_t size) {
    record *r = (record *)(b->arena + b->arena_used);
    int64_t depth = s->n_opened + s->n_closed, i = b->open_size++;
    int64_t *words = (int64_t *)(r + 1);
    entry e = {s->bound, depth, b->nodes, b->arena_used};

    r->slot = 0;
    r->size = size;
    r->shortfall = s->shortfall;
    r->branch = s->branch;
    r->n_arcs = s->n_arcs;
    r->n_opened = s->n_opened;
    memcpy(words, s->decisions, sizeof(int64_t) * (size_t)depth);
    memcpy(words + depth, s->arcs, sizeof(int64_t) * (size_t)s->n_arcs);
    memcpy(words + depth + s->n_arcs, s->res, sizeof(double) * (size_t)(2 * s->n_arcs));
    memcpy(words + depth + 3 * s->n_arcs, s->pot, sizeof(double) * (size_t)n);
    b->arena_used += size;
    while (i > 0 && ahead(&e, &b->open[(i - 1) / 2])) {
        b->open[i] = b->open[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    b->open[i] = e;
    if (b->open_size > b->open_peak)
        b->open_peak = b->open_size;
}

/* Pop the first entry: its record copied to the scratch (its decisions
 * from decisions[1], see SOLVE) and marked free. */
static void pop_node(bnb *b, int64_t n) {
    entry top = b->open[0], last = b->open[--b->open_size];
    record *r = (record *)(b->arena + top.offset);
    const int64_t *words = (const int64_t *)(r + 1);
    int64_t i = 0, k = r->n_arcs;

    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= b->open_size)
            break;
        if (child + 1 < b->open_size && ahead(&b->open[child + 1], &b->open[child]))
            child++;
        if (!ahead(&b->open[child], &last))
            break;
        b->open[i] = b->open[child];
        i = child;
    }
    if (b->open_size > 0)
        b->open[i] = last;
    b->parent_bound = top.bound;
    b->parent = top.count;
    b->depth = top.depth;
    b->parent_shortfall = r->shortfall;
    b->arc = r->branch;
    b->n_opened = r->n_opened;
    b->n_start = k;
    memcpy(b->decisions + 1, words, sizeof(int64_t) * (size_t)top.depth);
    memcpy(b->start_arcs, words + top.depth, sizeof(int64_t) * (size_t)k);
    memcpy(b->start_res, words + top.depth + k, sizeof(double) * (size_t)(2 * k));
    memcpy(b->start_pot, words + top.depth + 3 * k, sizeof(double) * (size_t)n);
    r->slot = -1;
}

/* The node being solved or just solved: the closed child's decisions from
 * decisions[1], the opened one's from decisions[0], the root's none. */
static solved node_of(const bnb *b, const workspace *w) {
    int64_t closed = b->child == 0, root = b->parent == 0;
    solved s = {b->decisions + closed, w->arcs, w->pairs, b->pot, w->out[3] + w->out[1],
                b->shortfall, b->n_arcs, (int64_t)w->out[5],
                root ? 0 : b->n_opened + !closed, root ? 0 : b->depth - b->n_opened + closed};
    return s;
}

/* Prune the node solved or queue it, if it has an arc to branch on, and
 * log a child's (parent bound, bound) pair. Returns 1, having changed
 * nothing but pruned_floor, when a buffer lacks the room need_* names. */
static int settle(bnb *b, const workspace *w, int64_t n) {
    solved node = node_of(b, w), *s = &node;
    int queue = !pruned(b, s->bound) && s->branch >= 0, child = b->parent > 0, grow = 0;
    int64_t size = (int64_t)(sizeof(record) / 8) + s->n_opened + s->n_closed + 3 * s->n_arcs + n;

    if (child && b->bounds_cap > 0 && b->bounds_size + 2 > b->bounds_cap) {
        b->need_bounds = b->bounds_size + 2;
        grow = 1;
    }
    if (queue && 4 * (b->open_size + 1) > b->open_cap) {
        b->need_open = 4 * (b->open_size + 1);
        grow = 1;
    }
    if (queue && b->arena_used + size > b->arena_cap) {
        compact(b);
        if (b->arena_used + size > b->arena_cap) {
            b->need_arena = b->arena_used + size;
            grow = 1;
        }
    }
    if (grow)
        return 1;
    if (queue)
        push_node(b, s, n, size);
    if (child && b->bounds_cap > 0) {
        b->bounds[b->bounds_size++] = b->parent_bound;
        b->bounds[b->bounds_size++] = s->bound;
    }
    return 0;
}

/* Run the search from where it stopped: first the root, which the caller
 * solved, then pops, each solving its node's two children, closed then
 * opened, warm from its end state, until no node is left, the budget has
 * passed or the node limit is reached (checked before each pop). Returns
 * DONE (floor then holds the least open bound), CANDIDATE (a feasible node
 * whose estimate is at most best x factor: the caller prices it, sets best
 * and calls again), SOLVED (with log set, for the root and after each
 * child's solve, feasible or not), GROW (see settle) or solve's -1 or -2.
 * The node's state and facts stay where its solve left them until the
 * next call. */
int64_t bnb_run(bnb *b, const network *g, const double *cost, const workspace *w) {
    int64_t i, n = g->n, m = g->m;

    for (;;) {
        switch (b->stage) {
        case ROOT: /* the first node, logged, offered and settled as a last child */
            b->start = now();
            b->nodes = 1;
            b->pruned_floor = INFINITY;
            b->arc = -1;
            b->child = 1;
            b->feasible = 1;
            b->stage = OFFER;
            if (b->log)
                return SOLVED;
            break;
        case POP:
            if (b->open_size == 0 || now() - b->start > b->budget
                || (double)b->nodes >= b->node_limit) {
                b->floor = INFINITY;
                for (i = 0; i < b->open_size; i++)
                    if (b->open[i].bound < b->floor)
                        b->floor = b->open[i].bound;
                return DONE;
            }
            pop_node(b, n);
            if (!pruned(b, b->parent_bound)) {
                b->child = 0;
                b->stage = SOLVE;
            }
            break;
        case SOLVE: { /* the parent's decisions, from decisions[1]: closing the arc
                         appends it, opening it puts it in front */
            int32_t closed = b->child == 0;
            double stop = g->tol - b->parent_shortfall;
            solved s;

            if (b->child == 2) {
                b->stage = POP;
                break;
            }
            b->decisions[closed ? 1 + b->depth : 0] = b->arc;
            s = node_of(b, w); /* its decisions; the rest once solved */
            b->push_cap = 4 * (m - s.n_closed) + 16; /* solve_min_cost_flow's */
            memcpy(b->pot, b->start_pot, sizeof(double) * (size_t)n);
            b->nodes++;
            b->n_arcs = solve(g, cost, s.decisions, s.n_opened, s.n_closed, b->start_arcs,
                              b->start_res, b->n_start, b->arc, closed, b->amount, stop,
                              b->push_cap, b->pot, w);
            if (b->n_arcs < 0)
                return b->n_arcs;
            b->shortfall = b->parent_shortfall + w->out[0];
            b->feasible = !(w->out[0] > stop);
            b->stage = OFFER;
            if (b->log)
                return SOLVED;
            break;
        }
        case OFFER:
            if (!b->feasible) {
                b->child++;
                b->stage = SOLVE;
                break;
            }
            b->stage = SETTLE;
            if (w->out[4] <= b->best * b->factor) /* the estimate */
                return CANDIDATE;
            break;
        case SETTLE:
            if (settle(b, w, n))
                return GROW;
            b->child++;
            b->stage = SOLVE;
            break;
        }
    }
}

/* CPython's Mersenne Twister (Modules/_randommodule.c; Matsumoto &
 * Nishimura, ACM TOMACS 8 (1998) 3-30): the 624 words and the index that
 * random.Random.getstate() gives and setstate() takes. */
typedef struct {
    uint32_t words[624];
    int64_t index;
} twister;

static uint32_t next_word(twister *t) {
    uint32_t y, *mt = t->words;
    int k;

    if (t->index >= 624) { /* the next 624 words at once */
        for (k = 0; k < 624; k++) {
            y = (mt[k] & 0x80000000U) | (mt[(k + 1) % 624] & 0x7fffffffU);
            mt[k] = mt[(k + 397) % 624] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
        }
        t->index = 0;
    }
    y = mt[t->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* random.random(): 53 bits from two words. */
static double uniform(twister *t) {
    uint32_t a = next_word(t) >> 5, b = next_word(t) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* _randbelow(n), 1 <= n < 2**32: the next word's top bit_length(n) bits,
 * drawn again while they reach n. randint(a, b) is a + below(b - a + 1). */
static int64_t below(twister *t, int64_t n) {
    int bits = 0;
    int64_t j;

    while (n >> bits)
        bits++;
    do
        j = next_word(t) >> (32 - bits);
    while (j >= n);
    return j;
}

/* random.sample(range(length), count)'s picks, 1 <= count <= length < 2**32.
 * CPython's rule picks the branch: a pool (pick i is pool[below(length - i)],
 * swap-removed) when a list of length is no larger than a set of count, of
 * 21 + 4**ceil(log4(3 count)) slots above 5 picks (3 count is no power of
 * 4, so that is the least power of 4 at least 3 count), else below(length)
 * drawn again while already picked, which scratch marks. scratch holds
 * length entries, written before they are read. */
void ga_sample(twister *t, int64_t length, int64_t count, int64_t *scratch, int64_t *picks) {
    int64_t i, j, setsize = 21, power = 1;
    int pool;

    if (count > 5) {
        while (power < 3 * count)
            power *= 4;
        setsize += power;
    }
    pool = length <= setsize;
    for (i = 0; i < length; i++)
        scratch[i] = pool ? i : 0;
    for (i = 0; i < count; i++) {
        if (pool) {
            j = below(t, length - i);
            picks[i] = scratch[j];
            scratch[j] = scratch[length - i - 1];
        } else {
            do
                j = below(t, length);
            while (scratch[j]);
            scratch[j] = 1;
            picks[i] = j;
        }
    }
}

/* The GA's mutation of a genome of length divisors: count = randint(1,
 * max(1, length // 10)), the positions random.sample picks, then per
 * position a step of uniform(0, 1), negated when random() < 0.5, added to
 * the entry (an unbounded one reset to `reset` first) and floored at floor. */
void ga_mutate(twister *t, double *genome, int64_t length, double reset, double floor,
               int64_t *scratch, int64_t *picks) {
    int64_t i, count = 1 + below(t, length / 10 > 1 ? length / 10 : 1);

    ga_sample(t, length, count, scratch, picks);
    for (i = 0; i < count; i++) {
        double value = genome[picks[i]], step = uniform(t);
        if (value == INFINITY)
            value = reset;
        if (uniform(t) < 0.5)
            step = -step;
        value += step;
        genome[picks[i]] = value > floor ? value : floor;
    }
}

/* numpy's pairwise sum (np.sum of a contiguous float64 array) of a[i] x
 * b[2i], or of a[i] when b is NULL, i < n: 8 accumulators over blocks of at
 * most 128 terms, longer runs halved, the first half rounded down to a
 * multiple of 8. np.sum is 0.0 plus this. */
static double term(const double *a, const double *b, int64_t i) {
    return b ? a[i] * b[2 * i] : a[i];
}

static double pairwise(const double *a, const double *b, int64_t n) {
    double r[8], s = 0.0;
    int64_t i = 0, j;

    if (n > 128) {
        i = n / 2 - n / 2 % 8;
        return pairwise(a, b, i) + pairwise(a + i, b ? b + 2 * i : NULL, n - i);
    }
    if (n >= 8) {
        for (j = 0; j < 8; j++)
            r[j] = term(a, b, j);
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                r[j] += term(a, b, i + j);
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        s += term(a, b, i);
    return s;
}

/* The GA's generations (mcfcnf.ga.evolve), in the order of the Python loop
 * the tests keep. The population is `population` genomes of m divisors and
 * their true costs, each child one more, in slots of the caller's buffers;
 * pool lists the slots in the order of the Python population list, the
 * survivors first and the free slots, a generation's children, after them.
 * The caller sets the buffers (genomes, costs, hashes, pool: population +
 * children slots; history: history_cap rows; pot n, cost m, scratch the
 * larger of m and the slots, picks max(2, m / 10)), the generator, log (1:
 * return DECODED after each decode), neumaier (1: sum the population's costs
 * as Python >= 3.12's sum does), the target amount, the rules (mutation
 * probability, the divisor an unbounded entry is reset to, the floor), the
 * stops (start on the perf_counter clock, the elapsed seconds and the
 * iteration count to stop at) and the slice of seconds after which a call
 * returns. The rest is the loop's. */
typedef struct {
    twister mt;
    double *genomes, *costs;
    uint64_t *hashes;
    int64_t *pool;
    double *history; /* per generation: elapsed seconds, best, mean, lp_solves */
    double *pot, *cost;
    int64_t *scratch, *picks;
    int64_t population, children, history_cap, log, neumaier;
    double amount, mutation, reset, floor, start, stop, iteration_limit, slice;
    int64_t stage, iteration, child, history_used, lp_solves, decodes, n_arcs;
} evolution;

/* Where ga_run resumes, and what it returns (or a decode's negative status). */
enum { HASH, GENERATION, BREED };
enum { GA_DONE, GA_PAUSED, GA_DECODED };

/* A genome's digest, for finding equal divisors fast. */
static uint64_t digest(const double *genome, int64_t m) {
    uint64_t h[4] = {1, 2, 3, 4}, x;
    int64_t i;

    for (i = 0; i < m; i++) {
        memcpy(&x, genome + i, sizeof x);
        h[i & 3] = (h[i & 3] ^ x) * 0x9e3779b97f4a7c15U;
    }
    return h[0] ^ (h[1] >> 1) ^ (h[2] >> 2) ^ (h[3] >> 3);
}

/* A duel over the first size pool positions, as the tests' reference_duel:
 * two distinct positions drawn, the lower (true cost, position) wins.
 * Returns the winner, writes the loser. */
static int64_t duel(evolution *s, int64_t size, int64_t *loser) {
    int64_t p[2];
    double a, b;

    ga_sample(&s->mt, size, 2, s->scratch, p);
    a = s->costs[s->pool[p[0]]];
    b = s->costs[s->pool[p[1]]];
    if (a < b || (a == b && p[0] < p[1])) {
        *loser = p[1];
        return p[0];
    }
    *loser = p[0];
    return p[1];
}

/* fitness: a cold solve at cost fixed / divisor + unit_cost per unit, then
 * the true cost as evaluate.true_cost sums it (the used arcs' fixed costs,
 * then unit_cost x flow over every arc, each as np.sum). The carrying arcs,
 * their residual pairs and out stay in the workspace, the potentials in
 * pot. Returns the number of carrying arcs, or -1 (more than 4m + 16
 * rounds) or -2 (the target does not route; out[0] is the amount left). */
static int64_t decode(evolution *s, const network *g, const workspace *w, const double *genome,
                      double *true_cost) {
    int64_t i, k, used = 0, m = g->m;

    for (i = 0; i < m; i++)
        s->cost[i] = g->fixed[i] / genome[i] + g->unit_cost[i];
    memset(s->pot, 0, sizeof(double) * (size_t)g->n);
    k = solve(g, s->cost, NULL, 0, 0, NULL, NULL, 0, -1, 0, s->amount, g->tol, 4 * m + 16,
              s->pot, w);
    if (k < 0)
        return k;
    if (w->out[0] > g->tol)
        return -2;
    for (i = 0; i < m; i++) /* the costs are spent: cost now gathers the used arcs' fixed */
        if (w->res[2 * i + 1] > g->tol)
            s->cost[used++] = g->fixed[i];
    *true_cost = (0.0 + pairwise(s->cost, NULL, used))
                 + (0.0 + pairwise(g->unit_cost, w->res + 1, m));
    return k;
}

/* The next child, into the slot at pool position population + child: two
 * parent duels, crossover's interval [lo, hi) of the first parent into the
 * second, the mutation coin and mutate. Its divisors equal those of a
 * member or an earlier child: that decode's cost. Otherwise it is decoded.
 * Returns 1 for a decode, 0 for a reuse, or decode's negative status. */
static int64_t breed(evolution *s, const network *g, const workspace *w) {
    int64_t m = g->m, at = s->population + s->child, slot = s->pool[at], lo, hi, i, loser;
    const double *a = s->genomes + m * s->pool[duel(s, s->population, &loser)];
    const double *b = s->genomes + m * s->pool[duel(s, s->population, &loser)];
    double *child = s->genomes + m * slot;

    lo = below(&s->mt, m + 1);
    hi = below(&s->mt, m + 1);
    if (lo > hi) {
        i = lo;
        lo = hi;
        hi = i;
    }
    memcpy(child, b, sizeof(double) * (size_t)m);
    memcpy(child + lo, a + lo, sizeof(double) * (size_t)(hi - lo));
    if (uniform(&s->mt) < s->mutation)
        ga_mutate(&s->mt, child, m, s->reset, s->floor, s->scratch, s->picks);
    s->hashes[slot] = digest(child, m);
    for (i = 0; i < at; i++) {
        int64_t other = s->pool[i];
        if (s->hashes[other] == s->hashes[slot]
            && !memcmp(child, s->genomes + m * other, sizeof(double) * (size_t)m)) {
            s->costs[slot] = s->costs[other];
            return 0;
        }
    }
    s->n_arcs = decode(s, g, w, child, &s->costs[slot]);
    if (s->n_arcs < 0)
        return s->n_arcs;
    s->decodes++;
    return 1;
}

/* Selection, as the tests' tournament_select: duels over the pool until
 * population members are left, each loser's slot moved behind them, where
 * the next generation's children go; then the generation's history row. */
static void select_and_record(evolution *s) {
    int64_t size = s->population + s->children, i, loser, slot;
    double best, sum, comp = 0.0, *row = s->history + 4 * s->history_used++;

    while (size > s->population) {
        duel(s, size, &loser);
        slot = s->pool[loser];
        memmove(s->pool + loser, s->pool + loser + 1, sizeof(int64_t) * (size_t)(size - loser - 1));
        s->pool[--size] = slot;
    }
    best = s->costs[s->pool[0]];
    sum = 0.0 + best; /* sum(costs): 0 + the first, then the rest */
    for (i = 1; i < s->population; i++) {
        double x = s->costs[s->pool[i]], t = sum + x;
        if (x < best)
            best = x;
        if (s->neumaier) /* Neumaier's compensation, as CPython >= 3.12 */
            comp += fabs(sum) >= fabs(x) ? (sum - t) + x : (x - t) + sum;
        sum = t;
    }
    if (comp != 0.0 && isfinite(comp))
        sum += comp;
    row[0] = now() - s->start;
    row[1] = best;
    row[2] = sum / (double)s->population;
    row[3] = (double)s->lp_solves;
}

/* Run generations from where the last call stopped, until the iteration
 * limit or the elapsed stop (checked before each generation). Returns DONE,
 * PAUSED (the history buffer is full, or slice seconds have passed, checked
 * after each child and each generation), DECODED (with log set, after each
 * decode: the child's slot is at pool position population + child - 1) or
 * decode's -1 or -2. */
int64_t ga_run(evolution *s, const network *g, const workspace *w) {
    double entered = now();
    int64_t i, status;

    if (s->stage == HASH) {
        for (i = 0; i < s->population; i++)
            s->hashes[s->pool[i]] = digest(s->genomes + g->m * s->pool[i], g->m);
        s->stage = GENERATION;
    }
    for (;;) {
        if (s->stage == GENERATION) {
            if ((double)s->iteration >= s->iteration_limit || now() - s->start >= s->stop)
                return GA_DONE;
            s->iteration++;
            s->child = 0;
            s->stage = BREED;
        }
        if (s->child < s->children) {
            status = breed(s, g, w);
            s->child++;
            if (status < 0)
                return status;
            if (status && s->log)
                return GA_DECODED;
        } else {
            s->lp_solves += s->children;
            select_and_record(s);
            s->stage = GENERATION;
            if (s->history_used == s->history_cap)
                return GA_PAUSED;
        }
        if (now() - entered >= s->slice)
            return GA_PAUSED;
    }
}
