/* Compiled kernels for the "compiled" gather engine.
 *
 * Each kernel mirrors one numpy block of repro.core.engine bit for bit:
 * the per-element arithmetic (a single double multiply or add followed by
 * a strict `<` comparison) is evaluated in the identical order, so the
 * compiled engine produces byte-identical tables, breadcrumbs, and costs.
 * No -ffast-math, no reassociation: every element's value is the result
 * of the same IEEE-754 operations the numpy engine performs.
 *
 * Built on demand by repro.core.engine_compiled with the system C
 * compiler (`cc -O2 -fPIC -shared`) and loaded through ctypes, which
 * releases the GIL around every call — that is the whole point: the
 * convolution below dominates SOAR-Gather, and with the GIL released the
 * service can run gathers truly in parallel.
 *
 * All tensors arrive C-contiguous with the layouts noted per kernel.
 */

#include <stdint.h>

#define INF (1.0 / 0.0)

/* Leaf broadcast of flat_gather: initialize y_red / y_blue / x for every
 * leaf in one pass.
 *
 *   x, y_blue, y_red : (rows, width, n) float64
 *   path_rho         : (rows, n)        float64
 *   load             : (n,)             float64
 *   leaves           : (num_leaves,)    int64 node positions
 *   avail            : (n,)             uint8 (bool)
 *
 * Mirrors the numpy block: red entries are path_rho * load (every column
 * under at-most-k, column 0 under exactly-k), blue entries are +inf
 * except column 1 (exactly-k) / columns 1..k (at-most-k) of available
 * leaves, and x is the elementwise minimum.
 */
void repro_leaf_init(double *x, double *y_blue, double *y_red,
                     const double *path_rho, const double *load,
                     const int64_t *leaves, int64_t num_leaves,
                     const uint8_t *avail, int64_t rows, int64_t width,
                     int64_t n, int32_t exact_k) {
  const int64_t k = width - 1;
  for (int64_t m = 0; m < num_leaves; m++) {
    const int64_t v = leaves[m];
    const int can_blue = avail[v] && k >= 1;
    for (int64_t l = 0; l < rows; l++) {
      const double path = path_rho[l * n + v];
      const double red = path * load[v];
      double *yr = y_red + (l * width) * n + v;
      double *yb = y_blue + (l * width) * n + v;
      double *xv = x + (l * width) * n + v;
      for (int64_t b = 0; b < width; b++) {
        yr[b * n] = (exact_k && b != 0) ? INF : red;
        yb[b * n] = INF;
      }
      if (can_blue) {
        if (exact_k) {
          yb[1 * (int64_t)n] = path;
        } else {
          for (int64_t b = 1; b < width; b++) {
            yb[b * n] = path;
          }
        }
      }
      for (int64_t b = 0; b < width; b++) {
        const double r = yr[b * n], bl = yb[b * n];
        xv[b * n] = (bl < r) ? bl : r;
      }
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
