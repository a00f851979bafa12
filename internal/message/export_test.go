package message

// Wrap envelopes frame in the untraced form: the tests' way to drive
// the envelope without a Message around the frame.
func (e *Enveloper) Wrap(frame []byte) ([][]byte, error) { return e.appendWrap(nil, frame, nil) }
