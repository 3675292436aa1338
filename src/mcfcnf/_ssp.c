/* Min-cost-flow solve of mcfcnf.flowcore (see load_kernel), one ctypes call.
 *
 * Residual id 2i is arc i forward, 2i+1 its reversal; head[r] is where r
 * ends, adj[adj_start[u] .. adj_start[u + 1]) the ids leaving u, ascending.
 * ssp_augment is successive shortest paths with potentials: each round a
 * Dijkstra from frm stops when it settles `to`, the potentials shift and the
 * path's bottleneck is pushed. A path of infinite bottleneck, possible only
 * when the amount is infinite (max flow), ends it before the push, with
 * sent = INFINITY. Its results must equal, bit for bit, the
 * reference loop the tests keep: the heap is keyed by (distance, push
 * counter), a total order, and every float expression is evaluated in the
 * reference's left-to-right order (built with -ffp-contract=off, no
 * -ffast-math).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    double d;
    int64_t counter;
    int32_t v;
} entry;

static int before(const entry *a, const entry *b) {
    return a->d < b->d || (a->d == b->d && a->counter < b->counter);
}

static void push(entry *heap, int64_t *size, entry e) {
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!before(&e, &heap[up]))
            break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = e;
}

static entry pop(entry *heap, int64_t *size) {
    entry top = heap[0], last = heap[--(*size)];
    int64_t i = 0, n = *size;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(&heap[child + 1], &heap[child]))
            child++;
        if (!before(&heap[child], &last))
            break;
        heap[i] = heap[child];
        i = child;
    }
    if (n > 0)
        heap[i] = last;
    return top;
}

static int ssp_augment(int32_t n, const int32_t *head, const int32_t *adj_start,
                       const int32_t *adj, const double *cost, double *res, double *pot,
                       int32_t frm, int32_t to, double amount, double stop, int64_t push_cap,
                       double *left, double *sent) {
    /* a round pushes the start, then at most once per residual id scanned */
    int64_t heap_cap = (int64_t)adj_start[n] + 1;
    double *dist = malloc(sizeof(double) * (size_t)n);
    int32_t *parent = malloc(sizeof(int32_t) * (size_t)n);
    char *done = malloc((size_t)n);
    entry *heap = malloc(sizeof(entry) * (size_t)heap_cap);
    double remaining = amount, total = 0.0;
    int64_t pushes = 0;
    int status = 0;

    if (!dist || !parent || !done || !heap) {
        status = 2;
        goto out;
    }
    while (remaining > stop) {
        int64_t size = 0, counter = 1;
        double dist_t = INFINITY, bottleneck;
        int32_t v;

        if (++pushes > push_cap) {
            status = 1;
            goto out;
        }
        for (v = 0; v < n; v++) {
            dist[v] = INFINITY;
            done[v] = 0;
            parent[v] = -1;
        }
        dist[frm] = 0.0;
        push(heap, &size, (entry){0.0, 0, frm});
        while (size > 0) {
            entry top = pop(heap, &size);
            int32_t u = top.v, k;
            double pu;
            if (done[u])
                continue;
            done[u] = 1;
            if (u == to) {
                dist_t = top.d;
                break;
            }
            pu = pot[u];
            for (k = adj_start[u]; k < adj_start[u + 1]; k++) {
                int32_t rid = adj[k], w;
                double nd;
                if (res[rid] <= 0.0)
                    continue;
                w = head[rid];
                if (done[w])
                    continue;
                nd = top.d + (rid & 1 ? -cost[rid >> 1] : cost[rid >> 1]) + pu - pot[w];
                if (nd < dist[w]) {
                    dist[w] = nd;
                    parent[w] = rid;
                    push(heap, &size, (entry){nd, counter++, w});
                }
            }
        }
        if (dist_t == INFINITY)
            break;

        /* settled vertices keep their label; the rest shift by dist_t, which
           keeps every residual arc's reduced cost nonnegative */
        for (v = 0; v < n; v++)
            pot[v] += done[v] && dist[v] < dist_t ? dist[v] : dist_t;

        bottleneck = remaining;
        for (v = to; v != frm; v = head[parent[v] ^ 1])
            if (res[parent[v]] < bottleneck)
                bottleneck = res[parent[v]];
        if (bottleneck == INFINITY) {
            total = INFINITY;
            break;
        }
        for (v = to; v != frm; v = head[parent[v] ^ 1]) {
            res[parent[v]] -= bottleneck;
            res[parent[v] ^ 1] += bottleneck;
        }
        remaining -= bottleneck;
        total += bottleneck;
    }
out:
    *left = remaining;
    *sent = total;
    free(dist);
    free(parent);
    free(done);
    free(heap);
    return status;
}

/* The whole solve: residuals set to capacity, the start's arcs restored, arc
 * `changed` repaired, closed arcs zeroed, then ssp_augment. Writes the
 * carrying arcs to arcs and, to out, the amount left, their cost (summed in
 * arc order) and the amount sent; returns their number, or -1 (more than
 * push_cap rounds), -2 (out of memory) or -3 (an arc of infinite capacity to
 * saturate). The caller checks every index. */
int64_t ssp_solve(int32_t n, int64_t m, const int32_t *head, const int32_t *adj_start,
                  const int32_t *adj, const double *capacity, const double *cost,
                  const int64_t *closed, int64_t n_closed, const int64_t *start_arcs,
                  const double *start_res, int64_t n_start, int64_t changed,
                  int32_t changed_closed, int32_t frm, int32_t to, double amount, double stop,
                  int64_t push_cap, double *res, double *pot, int64_t *arcs, double *out) {
    int64_t i, k = 0;
    int status;

    memcpy(res, capacity, sizeof(double) * (size_t)(2 * m));
    for (i = 0; i < 2 * n_start; i++)
        res[2 * start_arcs[i / 2] + i % 2] = start_res[i];
    if (changed >= 0) { /* closed: its flow goes around it (and it is zeroed
                           below); cheaper: saturated if that pays, surplus back */
        int64_t r = changed_closed ? 2 * changed + 1 : 2 * changed;
        frm = head[r];
        to = head[r ^ 1];
        amount = changed_closed || cost[changed] + pot[to] - pot[frm] < 0.0 ? res[r] : 0.0;
        if (amount == INFINITY)
            return -3;
        res[r] = res[r] - amount;
        res[r ^ 1] = res[r ^ 1] + amount;
    }
    for (i = 0; i < n_closed; i++)
        res[2 * closed[i]] = 0.0;
    status = ssp_augment(n, head, adj_start, adj, cost, res, pot, frm, to, amount, stop,
                         push_cap, &out[0], &out[2]);
    if (status != 0)
        return -status;
    for (out[1] = 0.0, i = 0; i < m; i++)
        if (res[2 * i + 1] != 0.0) {
            out[1] += res[2 * i + 1] * cost[i];
            arcs[k++] = i;
        }
    return k;
}
