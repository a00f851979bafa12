// Package media is what the registry may not depend on.
package media

// Kind is a media kind.
const Kind = "image"
