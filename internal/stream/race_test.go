//go:build race

package stream

func init() { raceEnabled = true }
