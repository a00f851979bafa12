package core

// archive copies the frame it is given: the ownership rule flags it.
func archive(frame []byte) []byte { return append([]byte(nil), frame...) }

// Archive retains a frame.
func Archive(frame []byte) []byte { return archive(frame) }
