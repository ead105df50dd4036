package bpsf

// Schedule is the trial stage at P lanes in closed form, computed from
// trial records: each trial's iterations and success, as a one-lane
// DecodeAllTrials decode records them. Lane l decodes trials l, l+P,
// l+2P, … in order, each starting at the virtual step where the lane's
// previous trial ended, so a success's step is the sum of its lane's
// iterations up to and including it. The winner is the success with the
// least (step, trial) pair. Schedule returns that step and trial, or, when
// no recorded trial succeeded, the longest lane's total and -1. With one
// lane the winner is the first success, at the sum of the iterations up to
// it: serial Algorithm 1.
func Schedule(iters []int, success []bool, lanes int) (steps, winner int) {
	lanes = max(lanes, 1)
	winner = -1
	makespan := 0
	for l := 0; l < lanes && l < len(iters); l++ {
		step := 0
		for k := l; k < len(iters); k += lanes {
			step += iters[k]
			if k < len(success) && success[k] {
				if winner < 0 || step < steps || step == steps && k < winner {
					steps, winner = step, k
				}
				break
			}
		}
		makespan = max(makespan, step)
	}
	if winner < 0 {
		steps = makespan
	}
	return steps, winner
}

// cutToWinner cuts each trial's record at the winner's (steps, winner)
// pair in Schedule's virtual time: trial k keeps the iterations whose
// (step, k) precedes that pair, the ones every lane runs whatever the
// timing. It returns their sum and how many trials keep any, which is a
// prefix of the trials. With write it stores the cut records in place,
// and a trial cut short loses its success, which leaves only the
// winner's. With no winner nothing is cut.
func cutToWinner(iters []int, success []bool, lanes, steps, winner int, write bool) (work, started int) {
	for l := 0; l < lanes && l < len(iters); l++ {
		base := 0
		for k := l; k < len(iters); k += lanes {
			it := iters[k]
			if winner >= 0 {
				limit := steps - base
				if k > winner {
					limit--
				}
				it = max(0, min(it, limit))
			}
			base += iters[k]
			work += it
			if it > 0 {
				started = max(started, k+1)
			}
			if write {
				success[k] = success[k] && it == iters[k]
				iters[k] = it
			}
		}
	}
	return work, started
}
