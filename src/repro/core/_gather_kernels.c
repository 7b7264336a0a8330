/* Compiled kernels for the "compiled" backend.
 *
 * repro_repair_chain is the whole SOAR-Gather dynamic program over a set
 * of dirty columns (every internal switch for a cold gather, a delta's
 * ancestor chains for a repair).  repro_color is SOAR-Color for every
 * budget of a sweep, and repro_utilization is Eq. (1) for every traced
 * placement, so a sweep costs one colour call and one cost call.
 * Each kernel mirrors its numpy counterpart in repro.core bit for bit:
 * the per-element arithmetic (a single double multiply or add followed by
 * a strict `<` comparison) is evaluated in the identical order, so the
 * compiled backend produces byte-identical tables, breadcrumbs,
 * placements, and costs.
 * No -ffast-math, no reassociation, no multiply-add contraction
 * (-ffp-contract=off): every element's value is the result of the same
 * IEEE-754 operations the numpy engine performs.
 *
 * Built on demand by repro.core.engine_compiled with the system C
 * compiler (`cc -O2 -ffp-contract=off -fPIC -shared`) and loaded through
 * ctypes, which releases the GIL around every call, so the service can
 * run gathers and traces truly in parallel.
 *
 * All tensors arrive C-contiguous.  The gather tables are stores of
 * node-major blocks: y_blue / y_red are (capacity, height + 1, width) and
 * the breadcrumbs (slot capacity, height + 1, width), so one internal
 * switch's DP column (its (height + 1) x width table) and one breadcrumb
 * slot are each a single contiguous block of `block = (height + 1) * width`
 * elements.  A table names its blocks through two indices: internal node
 * v's block starts at y + col[v] * block and breadcrumb slot s's at
 * splits + scol[s] * block, so row l of node v is at
 * col[v] * block + l * width.  Leaves own no block (col[leaf] is -1 and
 * is never read): a leaf's column is a closed form of its load, its
 * path_rho column and its Λ membership (Algorithm 3 lines 1-9), computed
 * where a stage reads a leaf child (child_x_rows), and SOAR-Color decides
 * a leaf from its load and Λ alone.  A cold gather passes the cold index;
 * a repair's index shares its source's clean blocks and names fresh ones
 * for the dirty internal columns, which are the only blocks it writes.
 * The gather reads a child's rows and writes a node's rows as
 * unit-stride runs.
 *
 * Every kernel reads its long-lived arrays through structs the wrappers
 * bind once: struct kernel_layout (the structure arrays, once per
 * FlatLayout), struct kernel_tables (one table's stores, indices, loads and
 * Λ, once per FlatTables) and struct kernel_cost_model (once per
 * FlatCostModel).  Only the per-call arrays (dirty positions, budgets,
 * output masks, costs, error info) are arguments of their own.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define INF (1.0 / 0.0)

/* The structure arrays of one flat layout (repro.core.flat.FlatLayout),
 * shared by every table of the structure.  The vectors are (n,). */
struct kernel_layout {
  const double *path_rho;      /* (height + 1, n) */
  const int64_t *depth;
  const int64_t *num_children;
  const int64_t *child_concat; /* (sum of num_children,) */
  const int64_t *child_offset;
  const int64_t *stage_offset;
  int64_t n;
  int64_t height;
};

/* One table's arrays (repro.core.flat.FlatTables): the stores it reads
 * and writes its blocks in, its block indices, and the loads and Λ of the
 * network it was gathered for. */
struct kernel_tables {
  double *y_blue;          /* (capacity, height + 1, width) */
  double *y_red;           /* (capacity, height + 1, width) */
  int32_t *splits_blue;    /* (slot capacity, height + 1, width) */
  int32_t *splits_red;     /* (slot capacity, height + 1, width) */
  const int64_t *col;      /* (n,), -1 at leaves */
  const int64_t *scol;     /* (stages,) */
  const int64_t *load;     /* (n,) */
  const double *load_f64;  /* (n,), the same loads as doubles */
  const uint8_t *avail;    /* (n,) bool */
  int64_t width;
};

/* What Eq. (1) reads of one network (repro.core.flat.FlatCostModel). */
struct kernel_cost_model {
  const int64_t *parent;    /* (n,), -1 for the root */
  const double *rho;        /* (n,) */
  const int64_t *postorder; /* (n,), post-order rank -> flat position */
  const int64_t *load;      /* (n,) */
  const uint8_t *avail;     /* (n,) bool */
  int64_t n;
};

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
 *   table  : (rows, width) float64, the node's own block, updated in place
 *   child  : (rows, width) float64; a blue stage reads row 0 for every h
 *   splits : (rows, width) int32, the stage's breadcrumb block
 */
static void combine_column(double *table, const double *child,
                           int32_t *splits, int64_t rows, int64_t width,
                           int blue, int64_t j_cap) {
  const int64_t start = blue ? 1 : 0;
  for (int64_t h = 0; h < rows; h++) {
    double *row = table + h * width;
    const double *child_h = child + (blue ? 0 : h * width);
    int32_t *split_h = splits + h * width;
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
      split_h[b] = split;
    }
    for (int64_t b = 0; b < start && b < width; b++) {
      row[b] = INF;
      split_h[b] = 0;
    }
  }
}

/* What a stage reads a child's x rows from: the stores and the per-node
 * inputs of a leaf's closed form. */
struct child_source {
  const double *y_blue, *y_red, *path_rho, *load;
  const int64_t *col, *num_children;
  const uint8_t *avail;
  int64_t width, block, n;
  int32_t exact_k;
};

/* The x rows 1 .. count of child c as a (count, width) block:
 * x = min(y_red, y_blue), exactly numpy's np.minimum on NaN-free input.
 * An internal child's rows 1 .. count are one contiguous run of its store
 * block.  A leaf owns no block, so its rows are the closed form: red is
 * path_rho * load (every column under at-most-k, column 0 under
 * exactly-k), blue is path_rho on column 1 (exactly-k) / columns 1..k
 * (at-most-k) of an available leaf, +inf elsewhere — the same multiply
 * and the same strict `<` as the reference walk's leaf tables
 * (repro.core.gather.leaf_tables) and the numpy kernel's _leaf_x_rows, so
 * every backend reads the same bits. */
static void child_x_rows(double *out, const struct child_source *src,
                         int64_t c, int64_t count) {
  const int64_t width = src->width;
  if (src->num_children[c] == 0) {
    for (int64_t l = 1; l <= count; l++) {
      const double path = src->path_rho[l * src->n + c];
      const double red = path * src->load[c];
      double *row = out + (l - 1) * width;
      for (int64_t b = 0; b < width; b++) {
        const int red_defined = !src->exact_k || b == 0;
        const int blue_defined = src->exact_k ? b == 1 : b >= 1;
        const double r = red_defined ? red : INF;
        const double x = (blue_defined && src->avail[c]) ? path : INF;
        row[b] = (x < r) ? x : r;
      }
    }
    return;
  }
  const double *red = src->y_red + src->col[c] * src->block + width;
  const double *blue = src->y_blue + src->col[c] * src->block + width;
  for (int64_t i = 0; i < count * width; i++) {
    out[i] = (blue[i] < red[i]) ? blue[i] : red[i];
  }
}

/* The repair_chain kernel of repro.core.engine in one call: recompute
 * every dirty internal column of the flat tables in place — all of them
 * in fresh tables for a cold gather, a delta's ancestor chains for a
 * repair, whose dirty columns and slots name fresh blocks.
 *
 *   layout    : the structure (struct kernel_layout)
 *   tables    : the stores, block indices, loads and the repaired Λ
 *               (struct kernel_tables); col is -1 at leaves, never read
 *   dirty     : (num_dirty,) int64 ascending flat positions
 *   exact_k   : the budget semantics of the leaf closed form
 *
 * Ascending flat positions run deepest level first, so every child is
 * final before its parent is touched, and one ascending pass over all n
 * positions counts |Λ ∩ T_v|, the convolutions' split cap.  Dirty leaves
 * own no block and are skipped: a stage whose child is a leaf computes
 * its x rows from the closed form (child_x_rows), so exact_k reaches the
 * kernel only there.  A dirty internal node at depth d recomputes rows
 * 0 .. d of its own block in place: stage 1 seeds red with child x +
 * path_rho * load and blue (when available and k >= 1) with child x row 1
 * shifted one unit + path_rho; each further stage runs the red and blue
 * convolutions against that child's x rows, zeroing the stage's blue
 * breadcrumbs first (a node that cannot be blue gets zeros there, its
 * slot block being fresh and uninitialized).  The node's block is read
 * only by its parent, which runs later, so no stage needs a copy of it.
 * Returns 0, or -1 when scratch allocation fails, in which case nothing
 * has been written.
 */
int32_t repro_repair_chain(const struct kernel_layout *layout,
                           const struct kernel_tables *tables,
                           const int64_t *dirty, int64_t num_dirty,
                           int32_t exact_k) {
  const int64_t n = layout->n, width = tables->width;
  const int64_t k = width - 1;
  const int64_t block = (layout->height + 1) * width;
  const double *path_rho = layout->path_rho, *load = tables->load_f64;
  const int64_t *depth = layout->depth, *num_children = layout->num_children;
  const int64_t *child_concat = layout->child_concat;
  const int64_t *child_offset = layout->child_offset;
  const int64_t *stage_offset = layout->stage_offset;
  const int64_t *col = tables->col, *scol = tables->scol;
  const uint8_t *avail = tables->avail;
  double *y_blue = tables->y_blue, *y_red = tables->y_red;
  int32_t *splits_blue = tables->splits_blue, *splits_red = tables->splits_red;
  /* one child's x rows */
  double *cx = malloc((size_t)block * sizeof(double));
  /* n subtree-availability counts */
  int64_t *subtree_avail = malloc((size_t)n * sizeof(int64_t));
  if (cx == NULL || subtree_avail == NULL) {
    free(cx);
    free(subtree_avail);
    return -1;
  }
  for (int64_t v = 0; v < n; v++) {
    int64_t count = avail[v];
    for (int64_t c = 0; c < num_children[v]; c++) {
      count += subtree_avail[child_concat[child_offset[v] + c]];
    }
    subtree_avail[v] = count;
  }
  const struct child_source src = {
      .y_blue = y_blue, .y_red = y_red, .path_rho = path_rho, .load = load,
      .col = col, .num_children = num_children, .avail = avail,
      .width = width, .block = block, .n = n, .exact_k = exact_k};

  for (int64_t m = 0; m < num_dirty; m++) {
    const int64_t v = dirty[m];
    const int can_blue = avail[v] && k >= 1;
    const int64_t fan_out = num_children[v];
    if (fan_out == 0) {
      continue;
    }
    const int64_t rows = depth[v] + 1;
    const int64_t *children = child_concat + child_offset[v];
    double *red = y_red + col[v] * block, *blue = y_blue + col[v] * block;

    /* stage m = 1 */
    child_x_rows(cx, &src, children[0], rows);
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
      const int64_t slot = scol[stage_offset[v] + stage - 1];
      const int64_t j_cap = subtree_avail[children[stage]];
      int32_t *slot_blue = splits_blue + slot * block;
      child_x_rows(cx, &src, children[stage], rows);
      combine_column(red, cx, splits_red + slot * block, rows, width, 0,
                     j_cap);
      for (int64_t i = 0; i < rows * width; i++) {
        slot_blue[i] = 0;
      }
      if (can_blue) {
        combine_column(blue, cx, slot_blue, rows, width, 1, j_cap);
      }
    }
  }
  free(cx);
  free(subtree_avail);
  return 0;
}

/* Status codes of the colour and cost kernels (0 is success).  Every
 * code but KERNEL_NO_MEMORY fills info[0..2] with (placement row, flat
 * position, value) for the wrapper's PlacementError message. */
#define KERNEL_NO_MEMORY -1
#define COLOR_NEGATIVE_BUDGET 1
#define COLOR_BUDGET_OUT_OF_RANGE 2
#define COLOR_OVER_BUDGET 3
#define COST_OUTSIDE_AVAILABILITY 4

static int32_t kernel_error(int64_t *info, int32_t code, int64_t row,
                            int64_t position, int64_t value) {
  info[0] = row;
  info[1] = position;
  info[2] = value;
  return code;
}

/* SOAR-Color (Algorithm 4) for every budget of a sweep in one call: the
 * root-down walk of the batched numpy trace, node by node.
 *
 *   layout   : the structure (struct kernel_layout)
 *   tables   : the stores and block indices as in repro_repair_chain, and
 *              the traced network's loads and Λ (struct kernel_tables)
 *   budgets  : (num_budgets,) int64
 *   exact_k  : the budget semantics of the leaf rule
 *   blue_out : (num_budgets, n) uint8, written
 *   info     : (3,) int64, written on an error
 *
 * Flat positions run deepest level first, so walking them from the root
 * (position n - 1) down to 0 visits every parent before its children.
 * Each node receives (i, l) from its parent; the root gets (budget, 1).
 * A leaf is blue when i > 0, it is in Λ and (at-most-k only) its load
 * exceeds 1.  An internal node is blue when y_blue[l, i] < y_red[l, i]
 * (strict: a tie stays red); its children c_C .. c_2 take the breadcrumb
 * budgets of that colour at (l, running remainder), highest child first,
 * and c_1 the rest minus one unit if the node is blue.  Children sit at
 * distance 1 below a blue node and l + 1 below a red one.
 *
 * Corrupt tables never cause an out-of-bounds read: a child share below
 * zero, or one above the remainder (which would leave the first child a
 * negative budget), is COLOR_NEGATIVE_BUDGET, so every child budget stays
 * within 0..k; a budget handed in outside 0..k is
 * COLOR_BUDGET_OUT_OF_RANGE; more blue nodes than the budget is
 * COLOR_OVER_BUDGET.  Returns 0, a status code, or KERNEL_NO_MEMORY when
 * scratch allocation fails. */
int32_t repro_color(const struct kernel_layout *layout,
                    const struct kernel_tables *tables, const int64_t *budgets,
                    int64_t num_budgets, int32_t exact_k, uint8_t *blue_out,
                    int64_t *info) {
  const int64_t n = layout->n, width = tables->width;
  const int64_t k = width - 1;
  const int64_t block = (layout->height + 1) * width;
  const int64_t *num_children = layout->num_children;
  const int64_t *child_concat = layout->child_concat;
  const int64_t *child_offset = layout->child_offset;
  const int64_t *stage_offset = layout->stage_offset;
  const int64_t *col = tables->col, *scol = tables->scol;
  const int64_t *load = tables->load;
  const uint8_t *avail = tables->avail;
  const double *y_blue = tables->y_blue, *y_red = tables->y_red;
  const int32_t *splits_blue = tables->splits_blue;
  const int32_t *splits_red = tables->splits_red;
  /* (budget, distance) each node receives from its parent */
  int64_t *received = malloc(2 * (size_t)n * sizeof(int64_t));
  if (received == NULL) {
    return KERNEL_NO_MEMORY;
  }
  int64_t *distance = received + n;
  int32_t status = 0;
  for (int64_t row = 0; row < num_budgets && status == 0; row++) {
    uint8_t *blue = blue_out + row * n;
    int64_t selected = 0;
    if (budgets[row] < 0 || budgets[row] > k) {
      status = kernel_error(info, COLOR_BUDGET_OUT_OF_RANGE, row, n - 1,
                            budgets[row]);
      break;
    }
    received[n - 1] = budgets[row];
    distance[n - 1] = 1;
    for (int64_t v = n - 1; v >= 0; v--) {
      const int64_t i = received[v], l = distance[v];
      const int64_t fan_out = num_children[v];
      if (fan_out == 0) {
        blue[v] = i > 0 && avail[v] && (exact_k || load[v] > 1);
        selected += blue[v];
        continue;
      }
      const int64_t at = col[v] * block + l * width + i;
      const int is_blue = y_blue[at] < y_red[at];
      blue[v] = (uint8_t)is_blue;
      selected += is_blue;
      const int32_t *splits = is_blue ? splits_blue : splits_red;
      const int64_t child_distance = is_blue ? 1 : l + 1;
      const int64_t *children = child_concat + child_offset[v];
      int64_t remaining = i;
      for (int64_t stage = fan_out - 1; stage >= 1; stage--) {
        const int64_t slot = scol[stage_offset[v] + stage - 1];
        const int64_t share = splits[slot * block + l * width + remaining];
        if (share < 0) {
          status = kernel_error(info, COLOR_NEGATIVE_BUDGET, row,
                                children[stage], share);
          break;
        }
        if (share > remaining) { /* the first child would go negative */
          status = kernel_error(info, COLOR_NEGATIVE_BUDGET, row, children[0],
                                remaining - share);
          break;
        }
        received[children[stage]] = share;
        distance[children[stage]] = child_distance;
        remaining -= share;
      }
      if (status != 0) {
        break;
      }
      if (remaining - is_blue < 0) {
        status = kernel_error(info, COLOR_NEGATIVE_BUDGET, row, children[0],
                              remaining - is_blue);
        break;
      }
      received[children[0]] = remaining - is_blue;
      distance[children[0]] = child_distance;
    }
    if (status == 0 && selected > budgets[row]) {
      status = kernel_error(info, COLOR_OVER_BUDGET, row, -1, selected);
    }
  }
  free(received);
  return status;
}

/* Eq. (1) for a batch of placements over one structure:
 * phi = sum over links of msg_e * rho(e).
 *
 *   blue     : (num_placements, n) uint8 (bool) blue masks
 *   model    : the structure, loads and Λ of the network the costs are
 *              for (struct kernel_cost_model)
 *   cost_out : (num_placements,) float64, written
 *   info     : (3,) int64, written on an error
 *
 * Message counts run deepest level first (ascending flat positions, so
 * every child is final before its parent): a node forwards one message
 * when blue, else its children's messages plus its own load.  The counts
 * are exact integers; the sum then adds (double)count * rho link by link
 * in post-order, left to right — the doubles, order and rounding of the
 * numpy kernel's final Python sum().  That sum is a plain running total
 * before Python 3.12 and Neumaier-compensated from 3.12 on; `compensated`
 * selects which, so the result is bit-identical on either interpreter.
 * A blue node outside Λ is COST_OUTSIDE_AVAILABILITY.  Returns 0, that
 * code, or KERNEL_NO_MEMORY. */
int32_t repro_utilization(const uint8_t *blue, int64_t num_placements,
                          const struct kernel_cost_model *model,
                          int32_t compensated, double *cost_out,
                          int64_t *info) {
  const int64_t n = model->n;
  const int64_t *parent = model->parent, *postorder = model->postorder;
  const int64_t *load = model->load;
  const double *rho = model->rho;
  const uint8_t *avail = model->avail;
  for (int64_t row = 0; row < num_placements; row++) {
    for (int64_t v = 0; v < n; v++) {
      if (blue[row * n + v] && !avail[v]) {
        return kernel_error(info, COST_OUTSIDE_AVAILABILITY, row, v, 0);
      }
    }
  }
  int64_t *messages = malloc((size_t)n * sizeof(int64_t));
  if (messages == NULL) {
    return KERNEL_NO_MEMORY;
  }
  for (int64_t row = 0; row < num_placements; row++) {
    const uint8_t *is_blue = blue + row * n;
    for (int64_t v = 0; v < n; v++) {
      messages[v] = 0;
    }
    /* messages[v] holds v's arrivals until v is visited, then its
     * outgoing count */
    for (int64_t v = 0; v < n; v++) {
      messages[v] = is_blue[v] ? 1 : messages[v] + load[v];
      if (parent[v] >= 0) {
        messages[parent[v]] += messages[v];
      }
    }
    double total = 0.0, compensation = 0.0;
    for (int64_t rank = 0; rank < n; rank++) {
      const int64_t v = postorder[rank];
      const double term = (double)messages[v] * rho[v];
      const double sum = total + term;
      if (compensated && rank > 0) {
        if (fabs(total) >= fabs(term)) {
          compensation += (total - sum) + term;
        } else {
          compensation += (term - sum) + total;
        }
      }
      total = sum;
    }
    if (compensated && compensation != 0.0 && isfinite(compensation)) {
      total += compensation;
    }
    cost_out[row] = total;
  }
  free(messages);
  return 0;
}
