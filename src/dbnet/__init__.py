"""db-nets: colored Petri nets coupled to a constraint-checked relational
database through a query/action data-logic layer.

The package provides the net model (typed values, FO queries under
active-domain semantics, transactional add/delete actions, control layer
with view places and rollback arcs), a faithful firing semantics, seeded
simulation, bounded state-space exploration, and a textual scenario format.
"""

from .control import ActionBinding, DbNet, Place, Transition, validate_net
from .datalogic import (
    Action,
    ActionInstance,
    DataLogicLayer,
    FactTemplate,
    apply_raw,
    instantiate,
)
from .datatypes import (
    DataType,
    Kind,
    Predicate,
    Substitution,
    TypeDomain,
    Value,
    Variable,
    apply_substitution,
    bool_value,
    builtin_catalog,
    fresh_value,
    int_value,
    real_value,
    string_value,
)
from .errors import BindingError, ConfigError, DbNetError, DefinitionError
from .multiset import Multiset
from .persistence import (
    ComplianceReport,
    Constraint,
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    PersistenceLayer,
    RelationSchema,
    check_compliance,
    instance_to_json,
    instance_to_text,
)
from .query import (
    And,
    Exists,
    NamedQuery,
    Not,
    PredicateAtom,
    Query,
    RelationAtom,
    Truth,
    answers,
    entails,
    forall,
    free_vars,
    implies,
    or_,
)
from .semantics import (
    LTS,
    Marking,
    Snapshot,
    align_view_places,
    build_lts,
    enabled_firings,
    enumerate_bindings,
    fire,
    induced_action_instance,
    inscription_binding,
    is_enabled,
    make_snapshot,
    snapshot_digest,
)

__version__ = "0.1.0"
