// Package metrics is a leaf that keeps the rule.
package metrics

// Reads counts clock reads.
var Reads int
