package main

import t "time"

// pause sleeps through an aliased import, which a text match for
// "time.Sleep" misses: the scheduling rule flags it.
func pause() { t.Sleep(0) }
