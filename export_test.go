package expdb

// MetricFamilies is the table WritePrometheus writes, for the drift guards.
var MetricFamilies = (*DB).metricFamilies
