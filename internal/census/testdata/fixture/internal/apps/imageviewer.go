// Package apps holds a receive-path file under the ownership rule.
package apps

import (
	"slices"

	"fixture/internal/media"
)

// Kind reaches into media, so whatever imports apps depends on it.
func Kind() string { return media.Kind }

// Order copies a slice that is not a frame: allowed.
func Order(ids []int) []int { return slices.Clone(ids) }

// Keep copies a received frame: the ownership rule flags it.
func Keep(frame []byte) []byte { return slices.Clone(frame) }
