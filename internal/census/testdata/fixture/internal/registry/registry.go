// Package registry breaks the boundary rule through apps, which imports
// media.
package registry

import "fixture/internal/apps"

// Kind is the media kind the registry should not know.
func Kind() string { return apps.Kind() }
