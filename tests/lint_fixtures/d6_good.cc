// D6 fixture: load reads routed through the RqLoad memo, plus
// near-miss identifiers. Not compiled — lint input only.

double group_sum(Time now, CpuId cpu) {
  double load = RqLoad(now, cpu);      // sanctioned memoized accessor
  load += ComputeGroupStats(now, g).sum_load;  // sanctioned group aggregate
  double value_at = 0.0;               // identifier, not a call
  (void)value_at;
  return load + ValueAtHome(now);      // different identifier
}
