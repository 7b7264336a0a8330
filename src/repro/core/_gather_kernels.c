/* Compiled kernels for the "compiled" gather engine.
 *
 * Each kernel mirrors one numpy block of repro.core.engine bit for bit:
 * the per-element arithmetic (a single double multiply or add followed by
 * a strict `<` comparison) is evaluated in the identical order, so the
 * compiled engine produces byte-identical tables, breadcrumbs, and costs.
 * No -ffast-math, no reassociation, no multiply-add contraction
 * (-ffp-contract=off): every element's value is the result of the same
 * IEEE-754 operations the numpy engine performs.
 *
 * Built on demand by repro.core.engine_compiled with the system C
 * compiler (`cc -O2 -ffp-contract=off -fPIC -shared`) and loaded through
 * ctypes, which
 * releases the GIL around every call — that is the whole point: the
 * convolution below dominates SOAR-Gather, and with the GIL released the
 * service can run gathers truly in parallel.
 *
 * All tensors arrive C-contiguous with the layouts noted per kernel.
 */

#include <stdint.h>
#include <stdlib.h>

#define INF (1.0 / 0.0)

/* The y_blue / y_red entries of one leaf column v, rows 0 .. rows - 1
 * (tensors (rows, width, n)): red entries are path_rho * load (every
 * column under at-most-k, column 0 under exactly-k), blue entries are
 * +inf except column 1 (exactly-k) / columns 1..k (at-most-k) of an
 * available leaf. */
static void leaf_column(double *y_blue, double *y_red, const double *path_rho,
                        double load, int64_t v, int can_blue, int64_t rows,
                        int64_t width, int64_t n, int32_t exact_k) {
  for (int64_t l = 0; l < rows; l++) {
    const double path = path_rho[l * n + v];
    const double red = path * load;
    double *yr = y_red + (l * width) * n + v;
    double *yb = y_blue + (l * width) * n + v;
    for (int64_t b = 0; b < width; b++) {
      yr[b * n] = (exact_k && b != 0) ? INF : red;
      yb[b * n] = INF;
    }
    if (can_blue) {
      if (exact_k) {
        yb[1 * n] = path;
      } else {
        for (int64_t b = 1; b < width; b++) {
          yb[b * n] = path;
        }
      }
    }
  }
}

/* Leaf broadcast of flat_gather: initialize y_red / y_blue / x for every
 * leaf in one pass.
 *
 *   x, y_blue, y_red : (rows, width, n) float64
 *   path_rho         : (rows, n)        float64
 *   load             : (n,)             float64
 *   leaves           : (num_leaves,)    int64 node positions
 *   avail            : (n,)             uint8 (bool)
 *
 * Mirrors the numpy block: the y entries of every leaf as in
 * leaf_column, and x is the elementwise minimum.
 */
void repro_leaf_init(double *x, double *y_blue, double *y_red,
                     const double *path_rho, const double *load,
                     const int64_t *leaves, int64_t num_leaves,
                     const uint8_t *avail, int64_t rows, int64_t width,
                     int64_t n, int32_t exact_k) {
  const int64_t k = width - 1;
  for (int64_t m = 0; m < num_leaves; m++) {
    const int64_t v = leaves[m];
    leaf_column(y_blue, y_red, path_rho, load[v], v, avail[v] && k >= 1, rows,
                width, n, exact_k);
    for (int64_t i = 0; i < rows * width; i++) {
      const double r = y_red[i * n + v], bl = y_blue[i * n + v];
      x[i * n + v] = (bl < r) ? bl : r;
    }
  }
}

/* The mCost (min,+)-convolution of _batched_combine.
 *
 *   previous   : (height, width, batch) float64 — Y^{m-1}
 *   child      : (child_height, width, batch) float64; child_height is
 *                `height` for red parents and 1 for blue parents (the
 *                child always sees l = 1, broadcast over the height axis)
 *   best       : (height, width, batch) float64 out
 *   best_split : (height, width, batch) int32 out
 *
 * Element semantics, identical to the numpy kernel: for each (h, b, v)
 * the minimum over j = 0 .. j_limit with j + (blue ? 1 : 0) <= b of
 * previous[h, b - j, v] + child[h or 0, j, v]; ties keep the smallest j
 * (ascending scan, strict improvement).  Entries with no feasible split
 * (blue, b = 0) are +inf with split 0.
 */
void repro_batched_combine(const double *previous, const double *child,
                           double *best, int32_t *best_split, int64_t height,
                           int64_t width, int64_t batch, int64_t child_height,
                           int32_t blue, int64_t j_limit) {
  const int64_t start0 = blue ? 1 : 0;
  for (int64_t h = 0; h < height; h++) {
    const double *prev_h = previous + h * width * batch;
    const double *child_h = child + (child_height == 1 ? 0 : h) * width * batch;
    double *best_h = best + h * width * batch;
    int32_t *split_h = best_split + h * width * batch;

    for (int64_t b = 0; b < start0 && b < width; b++) {
      for (int64_t v = 0; v < batch; v++) {
        best_h[b * batch + v] = INF;
        split_h[b * batch + v] = 0;
      }
    }
    for (int64_t b = start0; b < width; b++) {
      const double *prev_b = prev_h + b * batch;
      double *best_b = best_h + b * batch;
      int32_t *split_b = split_h + b * batch;
      for (int64_t v = 0; v < batch; v++) {
        best_b[v] = prev_b[v] + child_h[v]; /* j = 0 seed, split 0 */
        split_b[v] = 0;
      }
    }
    for (int64_t j = 1; j <= j_limit; j++) {
      const int64_t start = blue ? j + 1 : j;
      if (start >= width)
        break;
      const double *child_j = child_h + j * batch;
      for (int64_t b = start; b < width; b++) {
        const double *prev_b = prev_h + (b - j) * batch;
        double *best_b = best_h + b * batch;
        int32_t *split_b = split_h + b * batch;
        for (int64_t v = 0; v < batch; v++) {
          const double cand = prev_b[v] + child_j[v];
          if (cand < best_b[v]) {
            best_b[v] = cand;
            split_b[v] = (int32_t)j;
          }
        }
      }
    }
  }
}

/* One stage of the mCost convolution for a single node, in place:
 * table[h, b] = min over j of table[h, b - j] + child[h or 0, j] with
 * j = 0 .. b (red) or 0 .. b - 1 (blue: the parent keeps one unit),
 * ties to the smallest j, exactly as repro_batched_combine with an
 * uncapped split range.  Columns run from the widest down, so every
 * table[h, b - j] read is still the previous stage's value.
 *
 *   table  : (rows, width) float64, updated in place
 *   child  : (rows, width) float64; a blue stage reads row 0 for every h
 *   splits : breadcrumb slot, element (h, b) at splits[(h * width + b) *
 *            stages]
 */
static void combine_column(double *table, const double *child,
                           int32_t *splits, int64_t rows, int64_t width,
                           int64_t stages, int blue) {
  const int64_t start = blue ? 1 : 0;
  for (int64_t h = 0; h < rows; h++) {
    double *row = table + h * width;
    const double *child_h = child + (blue ? 0 : h * width);
    int32_t *split_h = splits + h * width * stages;
    for (int64_t b = width - 1; b >= start; b--) {
      double best = row[b] + child_h[0]; /* j = 0 seed, split 0 */
      int32_t split = 0;
      for (int64_t j = 1; j <= b - start; j++) {
        const double cand = row[b - j] + child_h[j];
        if (cand < best) {
          best = cand;
          split = (int32_t)j;
        }
      }
      row[b] = best;
      split_h[b * stages] = split;
    }
    for (int64_t b = 0; b < start && b < width; b++) {
      row[b] = INF;
      split_h[b * stages] = 0;
    }
  }
}

/* The x rows 1 .. rows of node c as a (rows, width) block:
 * x = min(y_red, y_blue), exactly numpy's np.minimum on NaN-free input. */
static void child_x_rows(double *out, const double *y_blue,
                         const double *y_red, int64_t c, int64_t rows,
                         int64_t width, int64_t n) {
  for (int64_t l = 0; l < rows; l++) {
    for (int64_t b = 0; b < width; b++) {
      const int64_t at = ((l + 1) * width + b) * n + c;
      const double r = y_red[at], bl = y_blue[at];
      out[l * width + b] = (bl < r) ? bl : r;
    }
  }
}

/* Fused delta repair: recompute every dirty column of cloned flat tables
 * in place, the whole of repair_chain of repro.core.engine in one call.
 *
 *   y_blue, y_red           : (height + 1, width, n) float64, in place
 *   splits_blue, splits_red : (height + 1, width, stages) int32, in place
 *   path_rho                : (height + 1, n) float64
 *   load                    : (n,) float64
 *   avail                   : (n,) uint8 (bool), the repaired Λ
 *   depth, num_children, child_offset, stage_offset : (n,) int64
 *   child_concat            : (sum of num_children,) int64
 *   dirty                   : (num_dirty,) int64 ascending flat positions
 *
 * Ascending flat positions run deepest level first, so every child is
 * final before its parent is touched.  A dirty leaf is re-broadcast on
 * all height + 1 rows (leaf_column); a dirty internal node at depth d
 * recomputes rows 0 .. d: stage 1 seeds red with child x + path_rho *
 * load and blue (when available and k >= 1) with child x row 1 shifted
 * one unit + path_rho; each further stage runs the red and blue
 * convolutions against that child's x rows, re-zeroing the stage's blue
 * breadcrumbs first (a node that lost blue eligibility must not keep
 * stale ones).  Returns 0, or -1 when scratch allocation fails, in which
 * case nothing has been written.
 */
int32_t repro_repair_chain(double *y_blue, double *y_red,
                           int32_t *splits_blue, int32_t *splits_red,
                           const double *path_rho, const double *load,
                           const uint8_t *avail, const int64_t *depth,
                           const int64_t *num_children,
                           const int64_t *child_concat,
                           const int64_t *child_offset,
                           const int64_t *stage_offset, const int64_t *dirty,
                           int64_t num_dirty, int64_t height, int64_t width,
                           int64_t n, int64_t stages, int32_t exact_k) {
  const int64_t k = width - 1;
  const int64_t block = (height + 1) * width;
  double *scratch = malloc(3 * (size_t)block * sizeof(double));
  if (scratch == NULL) {
    return -1;
  }
  double *red = scratch, *blue = scratch + block, *cx = scratch + 2 * block;

  for (int64_t m = 0; m < num_dirty; m++) {
    const int64_t v = dirty[m];
    const int can_blue = avail[v] && k >= 1;
    const int64_t fan_out = num_children[v];
    if (fan_out == 0) {
      leaf_column(y_blue, y_red, path_rho, load[v], v, can_blue, height + 1,
                  width, n, exact_k);
      continue;
    }
    const int64_t rows = depth[v] + 1;
    const int64_t *children = child_concat + child_offset[v];

    /* stage m = 1 */
    child_x_rows(cx, y_blue, y_red, children[0], rows, width, n);
    for (int64_t l = 0; l < rows; l++) {
      const double upward = path_rho[l * n + v];
      const double seed = upward * load[v];
      for (int64_t b = 0; b < width; b++) {
        red[l * width + b] = cx[l * width + b] + seed;
        blue[l * width + b] = INF;
      }
      if (can_blue) {
        for (int64_t b = 1; b < width; b++) {
          blue[l * width + b] = cx[b - 1] + upward;
        }
      }
    }

    /* stages m = 2 .. C(v) */
    for (int64_t stage = 1; stage < fan_out; stage++) {
      const int64_t slot = stage_offset[v] + stage - 1;
      child_x_rows(cx, y_blue, y_red, children[stage], rows, width, n);
      combine_column(red, cx, splits_red + slot, rows, width, stages, 0);
      for (int64_t i = 0; i < rows * width; i++) {
        splits_blue[i * stages + slot] = 0;
      }
      if (can_blue) {
        combine_column(blue, cx, splits_blue + slot, rows, width, stages, 1);
      }
    }

    for (int64_t i = 0; i < rows * width; i++) {
      y_red[i * n + v] = red[i];
      y_blue[i * n + v] = blue[i];
    }
  }
  free(scratch);
  return 0;
}

/* The colour decision: out = (a < b), elementwise over flat buffers.
 * Used for the per-level blue/red decisions of the compiled colour
 * kernel.  NaNs (possible in the engine's never-read uninitialized rows)
 * compare false, exactly as numpy's np.less. */
void repro_strict_less(const double *a, const double *b, uint8_t *out,
                       int64_t size) {
  for (int64_t i = 0; i < size; i++) {
    out[i] = a[i] < b[i];
  }
}

/* Left-to-right sequential sum, the reduction order of the flat cost
 * kernel's `float(sum(contributions.tolist()))` — a plain running double
 * accumulation, so the result is bit-identical to the Python sum. */
double repro_sequential_sum(const double *values, int64_t size) {
  double total = 0.0;
  for (int64_t i = 0; i < size; i++) {
    total += values[i];
  }
  return total;
}
