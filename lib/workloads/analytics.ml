let n_zones = 256
let n_hours = 24

(* MiniC text shared by the variants, spliced in with [%s] (so the [%]
   in [rnd] is literal here).  [prelude] is the generator's RNG and
   skew draws plus the aggregation helpers, used by all three;
   [battery] is the column generator, Q1-Q8 and the cold query, used
   by the two column-store variants.  perfbench reseeds a run by
   rewriting the one [rng_state] line. *)
let prelude =
  {|int rng_state = 424242;

int rnd(int bound) {
  rng_state = rng_state * 2862933555777941757 + 3037000493;
  int x = rng_state / 65536;
  if (x < 0) { x = 0 - x; }
  return x % bound;
}

// Crude Zipf-ish zone draw: repeated halving biases small ids.
int zipf_zone() {
  int z = rnd(ZONES);
  int coin = rnd(4);
  if (coin > 0) { z = z / 2; }
  if (coin > 2) { z = z / 4; }
  return z;
}

// Rush-hour-skewed pickup hour.
int skewed_hour() {
  int coin = rnd(10);
  if (coin < 3) { return 7 + rnd(3); }
  if (coin < 6) { return 16 + rnd(4); }
  return rnd(HOURS);
}

// Shared aggregation helpers (deep caller/callee chains for the
// aggregate tables — Max Reach food).
void fhist_reset(double *sum, int *cnt, int n) {
  for (int i = 0; i < n; i = i + 1) {
    sum[i] = 0.0;
    cnt[i] = 0;
  }
}

void fhist_add(double *sum, int *cnt, int slot, double x) {
  sum[slot] = sum[slot] + x;
  cnt[slot] = cnt[slot] + 1;
}

double fhist_avg_total(double *sum, int *cnt, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    if (cnt[i] > 0) {
      acc = acc + sum[i] / (1.0 * cnt[i]);
    }
  }
  return acc;
}
|}

let battery =
  {|
void generate(int *hour, int *month, int *pick_zone, int *drop_zone,
              double *dist, double *fare, double *tip, int *passengers,
              int *payment, int *duration, int *vendor) {
  for (int i = 0; i < N; i = i + 1) {
    hour[i] = skewed_hour();
    month[i] = rnd(12);
    pick_zone[i] = zipf_zone();
    drop_zone[i] = zipf_zone();
    double d = 0.5 + 0.01 * rnd(3000);
    dist[i] = d;
    fare[i] = 2.5 + 1.8 * d + 0.01 * rnd(200);
    int card = rnd(10);
    if (card < 6) { payment[i] = 1; } else { payment[i] = 0; }
    if (payment[i] == 1) { tip[i] = fare[i] * 0.01 * (10 + rnd(15)); }
    else { tip[i] = 0.0; }
    passengers[i] = 1 + rnd(5);
    duration[i] = 3 + rnd(60);
    vendor[i] = rnd(2);
  }
}

// Q1: average fare by pickup hour.
double q_fare_by_hour(int *hour, double *fare, double *sum, int *cnt) {
  fhist_reset(sum, cnt, HOURS);
  for (int i = 0; i < N; i = i + 1) {
    fhist_add(sum, cnt, hour[i], fare[i]);
  }
  return fhist_avg_total(sum, cnt, HOURS);
}

// Q2+Q3: pickup-zone histogram and top-10 zones.
double q_top_zones(int *pick_zone, int *zone_cnt, double *top_val, int *top_idx) {
  for (int z = 0; z < ZONES; z = z + 1) { zone_cnt[z] = 0; }
  for (int i = 0; i < N; i = i + 1) {
    zone_cnt[pick_zone[i]] = zone_cnt[pick_zone[i]] + 1;
  }
  for (int t = 0; t < 10; t = t + 1) {
    top_val[t] = 0.0;
    top_idx[t] = -1;
  }
  for (int z = 0; z < ZONES; z = z + 1) {
    double v = 1.0 * zone_cnt[z];
    int slot = -1;
    for (int t = 9; t >= 0; t = t - 1) {
      if (v > top_val[t]) { slot = t; }
    }
    if (slot >= 0) {
      for (int t = 9; t > slot; t = t - 1) {
        top_val[t] = top_val[t - 1];
        top_idx[t] = top_idx[t - 1];
      }
      top_val[slot] = v;
      top_idx[slot] = z;
    }
  }
  double acc = 0.0;
  for (int t = 0; t < 10; t = t + 1) { acc = acc + 1.0 * top_idx[t]; }
  return acc;
}

// Q4: long card-paid trips — tip and fare volume.
double q_long_trips(double *dist, int *payment, double *tip, double *fare) {
  double long_tip = 0.0;
  double long_fare = 0.0;
  for (int i = 0; i < N; i = i + 1) {
    if (dist[i] > 10.0 && payment[i] == 1) {
      long_tip = long_tip + tip[i];
      long_fare = long_fare + fare[i];
    }
  }
  return long_tip + 0.001 * long_fare;
}

// Q5: monthly revenue.
double q_monthly_revenue(int *month, double *fare, double *tip, double *rev) {
  for (int m = 0; m < 12; m = m + 1) { rev[m] = 0.0; }
  for (int i = 0; i < N; i = i + 1) {
    rev[month[i]] = rev[month[i]] + fare[i] + tip[i];
  }
  double acc = 0.0;
  for (int m = 0; m < 12; m = m + 1) { acc = acc + 0.000001 * rev[m]; }
  return acc;
}

// Q6: payment-method split by hour.
double q_payment_split(int *hour, int *payment, int *pay_matrix) {
  for (int h = 0; h < HOURS * 2; h = h + 1) { pay_matrix[h] = 0; }
  for (int i = 0; i < N; i = i + 1) {
    int cell = hour[i] * 2 + payment[i];
    pay_matrix[cell] = pay_matrix[cell] + 1;
  }
  double acc = 0.0;
  for (int h = 0; h < HOURS; h = h + 1) {
    int tot = pay_matrix[h * 2] + pay_matrix[h * 2 + 1];
    if (tot > 0) { acc = acc + 1.0 * pay_matrix[h * 2 + 1] / (1.0 * tot); }
  }
  return acc;
}

// Q7: average speed by hour.
double q_speed(int *hour, double *dist, int *duration, double *sum, int *cnt) {
  fhist_reset(sum, cnt, HOURS);
  for (int i = 0; i < N; i = i + 1) {
    double mph = dist[i] * 60.0 / (1.0 * duration[i]);
    fhist_add(sum, cnt, hour[i], mph);
  }
  return fhist_avg_total(sum, cnt, HOURS);
}

// Q8: average trip distance per pickup zone.
double q_zone_distance(int *pick_zone, double *dist, double *sum, int *cnt) {
  fhist_reset(sum, cnt, ZONES);
  for (int i = 0; i < N; i = i + 1) {
    fhist_add(sum, cnt, pick_zone[i], dist[i]);
  }
  return fhist_avg_total(sum, cnt, ZONES);
}

// Cold query over rarely-touched columns.
int q_odd_vendor(int *vendor, int *passengers) {
  int odd = 0;
  for (int i = 0; i < N; i = i + 1) {
    if (vendor[i] == 1 && passengers[i] > 4) { odd = odd + 1; }
  }
  return odd;
}
|}

let source ~trips ~query_passes =
  Printf.sprintf
    {|
// NYC-taxi-style analytics: synthetic trip table + query battery.
// Columns and aggregation tables are separate heap structures; the
// query functions receive them as pointers, so pool allocation must
// thread data-structure handles through real call chains.
int N = %d;          // trips
int PASSES = %d;     // query battery repetitions
int ZONES = %d;
int HOURS = %d;

%s%s
void main() {
  // ---- trip columns (11 structures) ----
  int *hour = malloc(N * 8);
  int *month = malloc(N * 8);
  int *pick_zone = malloc(N * 8);
  int *drop_zone = malloc(N * 8);
  double *dist = malloc(N * 8);
  double *fare = malloc(N * 8);
  double *tip = malloc(N * 8);
  int *passengers = malloc(N * 8);
  int *payment = malloc(N * 8);
  int *duration = malloc(N * 8);
  int *vendor = malloc(N * 8);

  // ---- aggregation tables (11 structures) ----
  double *fare_sum_by_hour = malloc(HOURS * 8);
  int *cnt_by_hour = malloc(HOURS * 8);
  int *zone_cnt = malloc(ZONES * 8);
  double *rev_by_month = malloc(12 * 8);
  int *pay_matrix = malloc(HOURS * 2 * 8);
  double *speed_sum = malloc(HOURS * 8);
  int *speed_cnt = malloc(HOURS * 8);
  double *top_val = malloc(10 * 8);
  int *top_idx = malloc(10 * 8);
  double *zone_dist_sum = malloc(ZONES * 8);
  int *zone_dist_cnt = malloc(ZONES * 8);

  generate(hour, month, pick_zone, drop_zone, dist, fare, tip,
           passengers, payment, duration, vendor);

  double grand_total = 0.0;
  for (int p = 0; p < PASSES; p = p + 1) {
    grand_total = grand_total
      + q_fare_by_hour(hour, fare, fare_sum_by_hour, cnt_by_hour)
      + q_top_zones(pick_zone, zone_cnt, top_val, top_idx)
      + q_long_trips(dist, payment, tip, fare)
      + q_monthly_revenue(month, fare, tip, rev_by_month)
      + q_payment_split(hour, payment, pay_matrix)
      + q_speed(hour, dist, duration, speed_sum, speed_cnt)
      + q_zone_distance(pick_zone, dist, zone_dist_sum, zone_dist_cnt);
  }
  int odd_vendor = q_odd_vendor(vendor, passengers);
  print_float(grand_total);
  print_int(odd_vendor);
}
|}
    trips query_passes n_zones n_hours prelude battery

(* The serving variant: the same columns, tables, and query functions,
   but rooted in a global [struct Db] built once by [setup()] and
   queried one request at a time through [req(op, a, b)] — the shape a
   live session needs (state persists between calls; every request
   prints its result so per-tenant output streams can be compared bit
   for bit).  The query functions are [source]'s own ([battery]), so a
   request battery covering ops 0-7 reproduces one [source] pass. *)
let source_server ~trips =
  Printf.sprintf
    {|
// NYC-taxi analytics as a query server: global column store + per-
// request dispatch.
int N = %d;          // trips
int ZONES = %d;
int HOURS = %d;

struct Db {
  int *hour;
  int *month;
  int *pick_zone;
  int *drop_zone;
  double *dist;
  double *fare;
  double *tip;
  int *passengers;
  int *payment;
  int *duration;
  int *vendor;
  double *fare_sum_by_hour;
  int *cnt_by_hour;
  int *zone_cnt;
  double *rev_by_month;
  int *pay_matrix;
  double *speed_sum;
  int *speed_cnt;
  double *top_val;
  int *top_idx;
  double *zone_dist_sum;
  int *zone_dist_cnt;
}

struct Db *DB;

%s%s
// Build the column store once; requests query it in place.
void setup() {
  DB = malloc(sizeof(struct Db));
  DB->hour = malloc(N * 8);
  DB->month = malloc(N * 8);
  DB->pick_zone = malloc(N * 8);
  DB->drop_zone = malloc(N * 8);
  DB->dist = malloc(N * 8);
  DB->fare = malloc(N * 8);
  DB->tip = malloc(N * 8);
  DB->passengers = malloc(N * 8);
  DB->payment = malloc(N * 8);
  DB->duration = malloc(N * 8);
  DB->vendor = malloc(N * 8);
  DB->fare_sum_by_hour = malloc(HOURS * 8);
  DB->cnt_by_hour = malloc(HOURS * 8);
  DB->zone_cnt = malloc(ZONES * 8);
  DB->rev_by_month = malloc(12 * 8);
  DB->pay_matrix = malloc(HOURS * 2 * 8);
  DB->speed_sum = malloc(HOURS * 8);
  DB->speed_cnt = malloc(HOURS * 8);
  DB->top_val = malloc(10 * 8);
  DB->top_idx = malloc(10 * 8);
  DB->zone_dist_sum = malloc(ZONES * 8);
  DB->zone_dist_cnt = malloc(ZONES * 8);
  generate(DB->hour, DB->month, DB->pick_zone, DB->drop_zone, DB->dist,
           DB->fare, DB->tip, DB->passengers, DB->payment, DB->duration,
           DB->vendor);
}

// The request dispatcher: one call = one query = one printed line.
// op 0-6 run the float queries, op 7 the cold integer query; a and b
// are accepted for signature uniformity with the kv workload.
int req(int op, int a, int b) {
  int unused = a + b;
  double r = 0.0;
  if (op == 0) { r = q_fare_by_hour(DB->hour, DB->fare, DB->fare_sum_by_hour, DB->cnt_by_hour); }
  if (op == 1) { r = q_top_zones(DB->pick_zone, DB->zone_cnt, DB->top_val, DB->top_idx); }
  if (op == 2) { r = q_long_trips(DB->dist, DB->payment, DB->tip, DB->fare); }
  if (op == 3) { r = q_monthly_revenue(DB->month, DB->fare, DB->tip, DB->rev_by_month); }
  if (op == 4) { r = q_payment_split(DB->hour, DB->payment, DB->pay_matrix); }
  if (op == 5) { r = q_speed(DB->hour, DB->dist, DB->duration, DB->speed_sum, DB->speed_cnt); }
  if (op == 6) { r = q_zone_distance(DB->pick_zone, DB->dist, DB->zone_dist_sum, DB->zone_dist_cnt); }
  if (op == 7) {
    int odd = q_odd_vendor(DB->vendor, DB->passengers);
    print_int(odd);
    return odd;
  }
  print_float(r);
  return 0;
}

// Standalone mode: one full battery (= one [source] pass).
void main() {
  setup();
  for (int op = 0; op < 8; op = op + 1) {
    req(op, 0, 0);
  }
}
|}
    trips n_zones n_hours prelude battery

(* The same trip table and query battery, but laid out row-wise: one
   array of 88-byte Trip records instead of eleven columns.  Each
   query still touches only a few fields, so without layout help every
   pass drags whole interleaved records across the fabric; with
   --factorize the compiler rewrites the array column-major (AoS→SoA)
   and the fetched bytes collapse to the columns actually read.
   Printed outputs match [source]'s bit for bit: same RNG, same
   queries, same arithmetic order. *)
let source_aos ~trips ~query_passes =
  Printf.sprintf
    {|
// NYC-taxi-style analytics over a row-oriented trip table.
int N = %d;          // trips
int PASSES = %d;     // query battery repetitions
int ZONES = %d;
int HOURS = %d;

struct Trip {
  int hour;
  int month;
  int pick_zone;
  int drop_zone;
  double dist;
  double fare;
  double tip;
  int passengers;
  int payment;
  int duration;
  int vendor;
}

%s
void generate(struct Trip *trips) {
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    t->hour = skewed_hour();
    t->month = rnd(12);
    t->pick_zone = zipf_zone();
    t->drop_zone = zipf_zone();
    double d = 0.5 + 0.01 * rnd(3000);
    t->dist = d;
    t->fare = 2.5 + 1.8 * d + 0.01 * rnd(200);
    int card = rnd(10);
    if (card < 6) { t->payment = 1; } else { t->payment = 0; }
    if (t->payment == 1) { t->tip = t->fare * 0.01 * (10 + rnd(15)); }
    else { t->tip = 0.0; }
    t->passengers = 1 + rnd(5);
    t->duration = 3 + rnd(60);
    t->vendor = rnd(2);
  }
}

double q_fare_by_hour(struct Trip *trips, double *sum, int *cnt) {
  fhist_reset(sum, cnt, HOURS);
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    fhist_add(sum, cnt, t->hour, t->fare);
  }
  return fhist_avg_total(sum, cnt, HOURS);
}

double q_top_zones(struct Trip *trips, int *zone_cnt, double *top_val, int *top_idx) {
  for (int z = 0; z < ZONES; z = z + 1) { zone_cnt[z] = 0; }
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    zone_cnt[t->pick_zone] = zone_cnt[t->pick_zone] + 1;
  }
  for (int t = 0; t < 10; t = t + 1) {
    top_val[t] = 0.0;
    top_idx[t] = -1;
  }
  for (int z = 0; z < ZONES; z = z + 1) {
    double v = 1.0 * zone_cnt[z];
    int slot = -1;
    for (int t = 9; t >= 0; t = t - 1) {
      if (v > top_val[t]) { slot = t; }
    }
    if (slot >= 0) {
      for (int t = 9; t > slot; t = t - 1) {
        top_val[t] = top_val[t - 1];
        top_idx[t] = top_idx[t - 1];
      }
      top_val[slot] = v;
      top_idx[slot] = z;
    }
  }
  double acc = 0.0;
  for (int t = 0; t < 10; t = t + 1) { acc = acc + 1.0 * top_idx[t]; }
  return acc;
}

double q_long_trips(struct Trip *trips) {
  double long_tip = 0.0;
  double long_fare = 0.0;
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    if (t->dist > 10.0 && t->payment == 1) {
      long_tip = long_tip + t->tip;
      long_fare = long_fare + t->fare;
    }
  }
  return long_tip + 0.001 * long_fare;
}

double q_monthly_revenue(struct Trip *trips, double *rev) {
  for (int m = 0; m < 12; m = m + 1) { rev[m] = 0.0; }
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    rev[t->month] = rev[t->month] + t->fare + t->tip;
  }
  double acc = 0.0;
  for (int m = 0; m < 12; m = m + 1) { acc = acc + 0.000001 * rev[m]; }
  return acc;
}

double q_payment_split(struct Trip *trips, int *pay_matrix) {
  for (int h = 0; h < HOURS * 2; h = h + 1) { pay_matrix[h] = 0; }
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    int cell = t->hour * 2 + t->payment;
    pay_matrix[cell] = pay_matrix[cell] + 1;
  }
  double acc = 0.0;
  for (int h = 0; h < HOURS; h = h + 1) {
    int tot = pay_matrix[h * 2] + pay_matrix[h * 2 + 1];
    if (tot > 0) { acc = acc + 1.0 * pay_matrix[h * 2 + 1] / (1.0 * tot); }
  }
  return acc;
}

double q_speed(struct Trip *trips, double *sum, int *cnt) {
  fhist_reset(sum, cnt, HOURS);
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    double mph = t->dist * 60.0 / (1.0 * t->duration);
    fhist_add(sum, cnt, t->hour, mph);
  }
  return fhist_avg_total(sum, cnt, HOURS);
}

double q_zone_distance(struct Trip *trips, double *sum, int *cnt) {
  fhist_reset(sum, cnt, ZONES);
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    fhist_add(sum, cnt, t->pick_zone, t->dist);
  }
  return fhist_avg_total(sum, cnt, ZONES);
}

int q_odd_vendor(struct Trip *trips) {
  int odd = 0;
  for (int i = 0; i < N; i = i + 1) {
    struct Trip *t = trips + i;
    if (t->vendor == 1 && t->passengers > 4) { odd = odd + 1; }
  }
  return odd;
}

void main() {
  struct Trip *trips = malloc(N * sizeof(struct Trip));

  // ---- aggregation tables ----
  double *fare_sum_by_hour = malloc(HOURS * 8);
  int *cnt_by_hour = malloc(HOURS * 8);
  int *zone_cnt = malloc(ZONES * 8);
  double *rev_by_month = malloc(12 * 8);
  int *pay_matrix = malloc(HOURS * 2 * 8);
  double *speed_sum = malloc(HOURS * 8);
  int *speed_cnt = malloc(HOURS * 8);
  double *top_val = malloc(10 * 8);
  int *top_idx = malloc(10 * 8);
  double *zone_dist_sum = malloc(ZONES * 8);
  int *zone_dist_cnt = malloc(ZONES * 8);

  generate(trips);

  double grand_total = 0.0;
  for (int p = 0; p < PASSES; p = p + 1) {
    grand_total = grand_total
      + q_fare_by_hour(trips, fare_sum_by_hour, cnt_by_hour)
      + q_top_zones(trips, zone_cnt, top_val, top_idx)
      + q_long_trips(trips)
      + q_monthly_revenue(trips, rev_by_month)
      + q_payment_split(trips, pay_matrix)
      + q_speed(trips, speed_sum, speed_cnt)
      + q_zone_distance(trips, zone_dist_sum, zone_dist_cnt);
  }
  int odd_vendor = q_odd_vendor(trips);
  print_float(grand_total);
  print_int(odd_vendor);
}
|}
    trips query_passes n_zones n_hours prelude
