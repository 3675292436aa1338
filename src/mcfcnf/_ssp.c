/* Min-cost-flow solve of mcfcnf.flowcore (see load_kernel), one ctypes call
 * that allocates nothing: the caller passes every array it writes, and the
 * kernel checks the costs and arc indices it is given before it writes
 * anything. The same call is a whole branch-and-bound node of mcfcnf.exact:
 * it patches the opened arcs' costs, sums their fixed costs, solves, and in
 * one pass over the carrying arcs writes their residual pairs, a true-cost
 * estimate and the arc to branch on. The estimate adds the terms of
 * evaluate.true_cost in arc order, not numpy's pairwise order, so the caller
 * allows for the difference (evaluate.TRUE_COST_MARGIN) before taking the
 * exact cost.
 *
 * The same library holds sample_positions, the GA mutation's positions:
 * random.sample's picks, made from raw Mersenne Twister words that the
 * caller draws in bulk (mcfcnf.ga.mutate), so the generator's stream is
 * consumed word for word as random.sample would consume it.
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
 * saturate). Before any write it returns -3 for an opened or closed arc
 * and -4 for a start arc outside 0..m-1, -5 for a cost not >= 0 (NaN too;
 * the first such arc in out[5]) and -6 for an opened arc whose unit_cost is
 * not >= 0 (the lowest in out[5]). The caller checks `changed` and sizes
 * every array. */
int64_t ssp_solve(const network *g, const double *cost, const int64_t *node_arcs,
                  int64_t n_opened, int64_t n_closed, const int64_t *start_arcs,
                  const double *start_res, int64_t n_start, int64_t changed,
                  int32_t changed_closed, double amount, double stop, int64_t push_cap,
                  double *pot, const workspace *w) {
    const int32_t *head = g->head;
    const double *capacity = g->capacity, *c = cost, tol = g->tol;
    double *res = w->res, *out = w->out, constant = 0.0, most = tol, fixed_sum = 0.0,
           variable_sum = 0.0;
    char *is_open = w->is_open;
    int64_t i, k = -2, m = g->m, bad = m;
    int32_t frm = g->source, to = g->sink;

    for (i = 0; i < m; i++)
        if (!(cost[i] >= 0.0)) {
            out[5] = (double)i;
            return -5;
        }
    for (i = 0; i < n_opened + n_closed; i++)
        if (node_arcs[i] < 0 || node_arcs[i] >= m)
            return -3;
    for (i = 0; i < n_start; i++)
        if (start_arcs[i] < 0 || start_arcs[i] >= m)
            return -4;
    for (i = 0; i < n_opened; i++)
        if (!(g->unit_cost[node_arcs[i]] >= 0.0) && node_arcs[i] < bad)
            bad = node_arcs[i];
    if (bad < m) {
        out[5] = (double)bad;
        return -6;
    }
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
    if (changed >= 0) { /* closed: its flow goes around it (and it is zeroed
                           below); cheaper: saturated if that pays, surplus back */
        int64_t r = changed_closed ? 2 * changed + 1 : 2 * changed;
        frm = head[r];
        to = head[r ^ 1];
        amount = changed_closed || c[changed] + pot[to] - pot[frm] < 0.0 ? res[r] : 0.0;
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

/* The little-endian 32-bit word at p. */
static uint32_t word_at(const unsigned char *p) {
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}

/* Bits of x, as Python's int.bit_length. */
static int bit_length(int64_t x) {
    int bits = 0;
    while (x >> bits)
        bits++;
    return bits;
}

/* The positions random.sample(range(length), count) picks from the
 * generator's next n_words outputs, 4 little-endian bytes each in draw
 * order: CPython's two branches, for 1 <= length < 2**32 (one word per
 * draw; the caller checks every size). Each draw below n is the next word's
 * top bit_length(n) bits, drawn again while they reach n (_randbelow). With
 * pool set (CPython's small-population rule, decided by the caller), pick i
 * is scratch[randbelow(length - i)] of a pool swap-removed; otherwise it is
 * randbelow(length), drawn again while already picked, which scratch marks.
 * Writes the picks to positions and returns the words used, or, when the
 * words run out, minus the picks left: at least that many more are needed.
 * scratch holds length entries, written before they are read. */
int64_t sample_positions(const unsigned char *words, int64_t n_words, int64_t length,
                         int64_t count, int32_t pool, int64_t *scratch, int64_t *positions) {
    int64_t i, j, n = length, used = 0;
    int bits = bit_length(length);

    for (i = 0; i < length; i++)
        scratch[i] = pool ? i : 0;
    for (i = 0; i < count; i++) {
        if (pool)
            bits = bit_length(n = length - i);
        do {
            if (used == n_words)
                return -(count - i);
            j = word_at(words + 4 * used++) >> (32 - bits);
        } while (j >= n || (!pool && scratch[j]));
        if (pool) {
            positions[i] = scratch[j];
            scratch[j] = scratch[n - 1];
        } else {
            positions[i] = j;
            scratch[j] = 1;
        }
    }
    return used;
}
