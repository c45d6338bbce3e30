//go:build race

package lower

func init() { raceEnabled = true }
