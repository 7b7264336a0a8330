/* Compiled kernels for the "compiled" gather engine.
 *
 * repro_repair_chain is the whole SOAR-Gather dynamic program over a set
 * of dirty columns (every switch for a cold gather, a delta's ancestor
 * chains for a repair); the other two serve the colour and cost kernels.
 * Each kernel mirrors its numpy counterpart in repro.core bit for bit:
 * the per-element arithmetic (a single double multiply or add followed by
 * a strict `<` comparison) is evaluated in the identical order, so the
 * compiled engine produces byte-identical tables, breadcrumbs, and costs.
 * No -ffast-math, no reassociation, no multiply-add contraction
 * (-ffp-contract=off): every element's value is the result of the same
 * IEEE-754 operations the numpy engine performs.
 *
 * Built on demand by repro.core.engine_compiled with the system C
 * compiler (`cc -O2 -ffp-contract=off -fPIC -shared`) and loaded through
 * ctypes, which releases the GIL around every call — that is the whole
 * point: the convolution below dominates SOAR-Gather, and with the GIL
 * released the service can run gathers truly in parallel.
 *
 * All tensors arrive C-contiguous with the layouts noted per kernel.
 */

#include <stdint.h>
#include <stdlib.h>

#define INF (1.0 / 0.0)

/* Every row of the y_blue / y_red columns of the given leaves (tensors
 * (rows, width, n)): red entries are path_rho * load (every column under
 * at-most-k, column 0 under exactly-k), blue entries are +inf except
 * column 1 (exactly-k) / columns 1..k (at-most-k) of an available leaf.
 * Rows and columns run outermost, so consecutive leaves write adjacent
 * doubles. */
static void leaf_columns(double *y_blue, double *y_red, const double *path_rho,
                         const double *load, const uint8_t *avail,
                         const int64_t *leaves, int64_t num_leaves,
                         int64_t rows, int64_t width, int64_t n,
                         int32_t exact_k) {
  for (int64_t l = 0; l < rows; l++) {
    const double *path = path_rho + l * n;
    for (int64_t b = 0; b < width; b++) {
      double *yr = y_red + (l * width + b) * n;
      double *yb = y_blue + (l * width + b) * n;
      const int red_defined = !exact_k || b == 0;
      const int blue_defined = exact_k ? b == 1 : b >= 1;
      for (int64_t m = 0; m < num_leaves; m++) {
        const int64_t v = leaves[m];
        yr[v] = red_defined ? path[v] * load[v] : INF;
        yb[v] = (blue_defined && avail[v]) ? path[v] : INF;
      }
    }
  }
}

/* One stage of the mCost convolution for a single node, in place:
 * table[h, b] = min over j of table[h, b - j] + child[h or 0, j] with
 * j = 0 .. b (red) or 0 .. b - 1 (blue: the parent keeps one unit),
 * ties to the smallest j (ascending scan, strict improvement), exactly as
 * the numpy _batched_combine; entries with no feasible split (blue,
 * b = 0) are +inf with split 0.  Columns run from the widest down, so every
 * table[h, b - j] read is still the previous stage's value.  Splits above
 * j_cap (the child subtree's available switches) are skipped: they cannot
 * strictly improve any entry (see _batched_combine), so the cap changes no
 * bit of the result.
 *
 *   table  : (rows, width) float64, updated in place
 *   child  : (rows, width) float64; a blue stage reads row 0 for every h
 *   splits : breadcrumb slot, element (h, b) at splits[(h * width + b) *
 *            stages]
 */
static void combine_column(double *table, const double *child,
                           int32_t *splits, int64_t rows, int64_t width,
                           int64_t stages, int blue, int64_t j_cap) {
  const int64_t start = blue ? 1 : 0;
  for (int64_t h = 0; h < rows; h++) {
    double *row = table + h * width;
    const double *child_h = child + (blue ? 0 : h * width);
    int32_t *split_h = splits + h * width * stages;
    for (int64_t b = width - 1; b >= start; b--) {
      double best = row[b] + child_h[0]; /* j = 0 seed, split 0 */
      int32_t split = 0;
      const int64_t j_top = b - start < j_cap ? b - start : j_cap;
      for (int64_t j = 1; j <= j_top; j++) {
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

/* The repair_chain kernel of repro.core.engine in one call: recompute
 * every dirty column of the flat tables in place — all columns of fresh
 * tables for a cold gather, a delta's ancestor chains of cloned ones for
 * a repair.
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
 * final before its parent is touched, and one ascending pass over all n
 * positions counts |Λ ∩ T_v|, the convolutions' split cap.  Dirty leaves
 * are rewritten first, on all height + 1 rows (leaf_columns).  A dirty
 * internal node at depth d recomputes rows 0 .. d: stage 1 seeds red with
 * child x + path_rho * load and blue (when available and k >= 1) with
 * child x row 1 shifted one unit + path_rho; each further stage runs the
 * red and blue convolutions against that child's x rows, re-zeroing the
 * stage's blue breadcrumbs first (a node that lost blue eligibility must
 * not keep stale ones).  Returns 0, or -1 when scratch allocation fails,
 * in which case nothing has been written.
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
  /* n subtree-availability counts, then the dirty leaves */
  int64_t *subtree_avail = malloc((size_t)(n + num_dirty) * sizeof(int64_t));
  if (scratch == NULL || subtree_avail == NULL) {
    free(scratch);
    free(subtree_avail);
    return -1;
  }
  double *red = scratch, *blue = scratch + block, *cx = scratch + 2 * block;
  for (int64_t v = 0; v < n; v++) {
    int64_t count = avail[v];
    for (int64_t c = 0; c < num_children[v]; c++) {
      count += subtree_avail[child_concat[child_offset[v] + c]];
    }
    subtree_avail[v] = count;
  }

  /* A leaf column depends on no other column, so all dirty leaves go
   * first, in one pass. */
  int64_t *leaves = subtree_avail + n, num_leaves = 0;
  for (int64_t m = 0; m < num_dirty; m++) {
    if (num_children[dirty[m]] == 0) {
      leaves[num_leaves++] = dirty[m];
    }
  }
  leaf_columns(y_blue, y_red, path_rho, load, avail, leaves, num_leaves,
               height + 1, width, n, exact_k);

  for (int64_t m = 0; m < num_dirty; m++) {
    const int64_t v = dirty[m];
    const int can_blue = avail[v] && k >= 1;
    const int64_t fan_out = num_children[v];
    if (fan_out == 0) {
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
      const int64_t j_cap = subtree_avail[children[stage]];
      child_x_rows(cx, y_blue, y_red, children[stage], rows, width, n);
      combine_column(red, cx, splits_red + slot, rows, width, stages, 0, j_cap);
      for (int64_t i = 0; i < rows * width; i++) {
        splits_blue[i * stages + slot] = 0;
      }
      if (can_blue) {
        combine_column(blue, cx, splits_blue + slot, rows, width, stages, 1,
                       j_cap);
      }
    }

    for (int64_t i = 0; i < rows * width; i++) {
      y_red[i * n + v] = red[i];
      y_blue[i * n + v] = blue[i];
    }
  }
  free(scratch);
  free(subtree_avail);
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
