package pensieve

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/nn"
	"repro/internal/rl"
)

// agentWire is the gob wire format for a trained agent.
type agentWire struct {
	Actor, Critic []byte
	Modified      bool
}

// MarshalBinary serializes a trained agent (actor + critic weights).
func (a *Agent) MarshalBinary() ([]byte, error) {
	actor, err := a.Actor.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("pensieve: encode actor: %w", err)
	}
	critic, err := a.Critic.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("pensieve: encode critic: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(agentWire{Actor: actor, Critic: critic, Modified: a.Modified}); err != nil {
		return nil, fmt.Errorf("pensieve: encode agent: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The optimizer state
// is not persisted; a loaded agent can act immediately and can be fine-tuned
// further (fresh optimizer moments).
func (a *Agent) UnmarshalBinary(data []byte) error {
	var w agentWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("pensieve: decode agent: %w", err)
	}
	var actor, critic nn.Network
	if err := actor.UnmarshalBinary(w.Actor); err != nil {
		return fmt.Errorf("pensieve: decode actor: %w", err)
	}
	if err := critic.UnmarshalBinary(w.Critic); err != nil {
		return fmt.Errorf("pensieve: decode critic: %w", err)
	}
	t := &rl.A2C{Actor: &actor, Critic: &critic}
	tune(t)
	*a = Agent{A2C: t, Modified: w.Modified}
	return nil
}

// LoadAgent reconstructs an agent serialized with MarshalBinary.
func LoadAgent(data []byte) (*Agent, error) {
	a := new(Agent)
	if err := a.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return a, nil
}
